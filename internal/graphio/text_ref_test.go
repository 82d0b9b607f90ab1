package graphio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// refDecodeText is the bufio.Scanner decoder decodeText replaced, kept
// verbatim as the oracle of FuzzDecodeTextMatchesReference. It parses the
// text format under the limits. Counts are checked
// incrementally as declarations parse (the document is rejected at the
// first excess line) and quanta ranges are width-checked before expansion.
func refDecodeText(data []byte, l Limits) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	if err := l.checkBytes(len(data)); err != nil {
		return nil, nil, err
	}
	g := taskgraph.New()
	var con *taskgraph.Constraint
	sc := bufio.NewScanner(bytes.NewReader(data))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("graphio: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "task":
			// task <name> wcrt <rat>
			if len(fields) != 4 || fields[2] != "wcrt" {
				return nil, nil, fail("expected 'task <name> wcrt <time>', got %q", line)
			}
			if err := l.checkTasks(len(g.Tasks()) + 1); err != nil {
				return nil, nil, err
			}
			wcrt, err := ratio.Parse(fields[3])
			if err != nil {
				return nil, nil, fail("bad wcrt: %v", err)
			}
			if _, err := g.AddTask(fields[1], wcrt); err != nil {
				return nil, nil, fail("%v", err)
			}
		case "buffer":
			// buffer <prod> -> <cons> prod <q> cons <q> [cap n] [bytes n]
			if len(fields) < 8 || fields[2] != "->" || fields[4] != "prod" || fields[6] != "cons" {
				return nil, nil, fail("expected 'buffer <producer> -> <consumer> prod <quanta> cons <quanta> [cap n] [bytes n]', got %q", line)
			}
			if err := l.checkBuffers(len(g.Buffers()) + 1); err != nil {
				return nil, nil, err
			}
			prod, err := refParseQuanta(fields[5], l)
			if err != nil {
				if IsLimit(err) {
					return nil, nil, err
				}
				return nil, nil, fail("bad production quanta: %v", err)
			}
			cons, err := refParseQuanta(fields[7], l)
			if err != nil {
				if IsLimit(err) {
					return nil, nil, err
				}
				return nil, nil, fail("bad consumption quanta: %v", err)
			}
			buf := taskgraph.Buffer{
				Producer: fields[1],
				Consumer: fields[3],
				Prod:     prod,
				Cons:     cons,
			}
			rest := fields[8:]
			for len(rest) > 0 {
				if len(rest) < 2 {
					return nil, nil, fail("dangling option %q", rest[0])
				}
				n, err := strconv.ParseInt(rest[1], 10, 64)
				if err != nil {
					return nil, nil, fail("bad %s value %q", rest[0], rest[1])
				}
				switch rest[0] {
				case "cap":
					buf.Capacity = n
				case "bytes":
					buf.ContainerBytes = n
				default:
					return nil, nil, fail("unknown buffer option %q", rest[0])
				}
				rest = rest[2:]
			}
			if _, err := g.AddBuffer(buf); err != nil {
				return nil, nil, fail("%v", err)
			}
		case "constraint":
			// constraint <task> period <rat>
			if len(fields) != 4 || fields[2] != "period" {
				return nil, nil, fail("expected 'constraint <task> period <time>', got %q", line)
			}
			if con != nil {
				return nil, nil, fail("duplicate constraint")
			}
			period, err := ratio.Parse(fields[3])
			if err != nil {
				return nil, nil, fail("bad period: %v", err)
			}
			con = &taskgraph.Constraint{Task: fields[1], Period: period}
		default:
			return nil, nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graphio: %w", err)
	}
	if con != nil {
		if err := con.Validate(g); err != nil {
			return nil, nil, err
		}
	}
	return g, con, nil
}

// refParseQuanta is the quanta parser refDecodeText used. It parses one quanta token, checking the set size limit
// before the values are materialised — in particular before a lo..hi range
// is expanded, so a tiny document cannot demand a huge allocation.
func refParseQuanta(s string, l Limits) (taskgraph.QuantaSet, error) {
	if strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}") {
		parts := strings.Split(s[1:len(s)-1], ",")
		if err := l.checkQuanta(len(parts)); err != nil {
			return taskgraph.QuantaSet{}, err
		}
		vals := make([]int64, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return taskgraph.QuantaSet{}, fmt.Errorf("bad set member %q", p)
			}
			vals = append(vals, v)
		}
		return taskgraph.NewQuantaSet(vals...)
	}
	if i := strings.Index(s, ".."); i >= 0 {
		lo, err := strconv.ParseInt(s[:i], 10, 64)
		if err != nil {
			return taskgraph.QuantaSet{}, fmt.Errorf("bad range start %q", s[:i])
		}
		hi, err := strconv.ParseInt(s[i+2:], 10, 64)
		if err != nil {
			return taskgraph.QuantaSet{}, fmt.Errorf("bad range end %q", s[i+2:])
		}
		if l.MaxQuanta > 0 && hi >= lo {
			// Width-minus-one in uint64: hi-lo never overflows there, while
			// the full width of MinInt64..MaxInt64 (2^64) would wrap to 0.
			if wm1 := uint64(hi) - uint64(lo); wm1 >= uint64(l.MaxQuanta) {
				return taskgraph.QuantaSet{}, &LimitError{What: "quanta set values", Limit: l.MaxQuanta, Got: clampWidth(wm1)}
			}
		}
		return taskgraph.Range(lo, hi)
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return taskgraph.QuantaSet{}, fmt.Errorf("bad quantum %q", s)
	}
	return taskgraph.NewQuantaSet(v)
}

// FuzzDecodeTextMatchesReference holds decodeText to the reference
// decoder: on every input and under both the zero and tight limits, the
// two accept with the same EncodeText bytes or reject with the same error
// text. The one allowed difference is a line longer than bufio.Scanner's
// 64 KiB token cap, which only the reference rejects.
func FuzzDecodeTextMatchesReference(f *testing.F) {
	f.Add(mp3Text)
	f.Add("task a wcrt 1\r\ntask b wcrt 1\r\nbuffer a -> b prod 1 cons 1\r\nconstraint b period 2\r")
	f.Add("task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod {1, 2} cons 2..4 cap 9 bytes 4 cap 3\n")
	f.Add("task\u00a0a wcrt 1\n\u3000task\u2028b\u0085wcrt 1\x0b\x0c\nbuffer a -> b prod 1 cons 1 # c")
	f.Add("task \xff\xfe wcrt 1\ntask b wcrt 1/0\n")
	f.Add("task a wcrt 1\ntask a wcrt 2\n")
	f.Add("buffer a -> b prod {1,x} cons 1\n")
	f.Add("task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 0..9223372036854775806 cons 1\n")
	f.Add("constraint a period 1\nconstraint a period 2\n")
	f.Add("bogus\n\n\n   # x\nconstraint z period 3.25")
	f.Add("task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1 cons 1 cap\n")
	f.Add("task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1 cons 1 size 3\n")
	f.Add("task b wcrt 1\nconstraint a period 1\n")
	f.Add("# " + strings.Repeat("x", 70000) + "\ntask a wcrt 1\n")
	tight := Limits{MaxBytes: 512, MaxTasks: 3, MaxBuffers: 2, MaxQuanta: 4}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, l := range []Limits{{}, tight} {
			g, c, err := decodeText([]byte(doc), l)
			rg, rc, rerr := refDecodeText([]byte(doc), l)
			if errors.Is(rerr, bufio.ErrTooLong) {
				continue
			}
			switch {
			case err != nil && rerr != nil:
				if err.Error() != rerr.Error() {
					t.Fatalf("limits %+v: error %q, reference %q\ninput: %q", l, err, rerr, doc)
				}
			case err != nil || rerr != nil:
				t.Fatalf("limits %+v: error %v, reference %v\ninput: %q", l, err, rerr, doc)
			default:
				if got, want := EncodeText(g, c), EncodeText(rg, rc); !bytes.Equal(got, want) {
					t.Fatalf("limits %+v: decoded to\n%s\nreference decoded to\n%s\ninput: %q", l, got, want, doc)
				}
			}
		}
	})
}
