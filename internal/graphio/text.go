package graphio

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// The text format is a line-oriented alternative to JSON, convenient to
// write by hand:
//
//	# MP3 playback, DATE 2008 §5
//	task vBR  wcrt 32/625
//	task vMP3 wcrt 3/125
//	buffer vBR -> vMP3 prod 2048 cons {96,120,960} cap 6015 bytes 1
//	constraint vMP3 period 1/44100
//
// Lines are independent; '#' starts a comment; quanta are a single value, a
// {a,b,c} set, or an inclusive lo..hi range; times are exact rationals.

// DecodeText parses the text format into a graph and optional constraint.
func DecodeText(data []byte) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	return decodeText(data, Limits{})
}

// decodeText parses the text format under the limits. Counts are checked
// incrementally as declarations parse (the document is rejected at the
// first excess line) and quanta ranges are width-checked before expansion.
//
// Lines end at '\n', with one trailing '\r' dropped, and fields are
// separated by runs of Unicode white space, as bufio.ScanLines and
// strings.Fields would split them; a line may be as long as the document.
// A line that is empty once its comment is cut makes no string; any other
// becomes one string, and its fields are substrings of it.
func decodeText(data []byte, l Limits) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	if err := l.checkBytes(len(data)); err != nil {
		return nil, nil, err
	}
	g := taskgraph.New()
	var con *taskgraph.Constraint
	var fieldStore [12]string // a buffer line with both options has 12 fields
	for lineNo := 1; len(data) > 0; lineNo++ {
		raw := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		if i := bytes.IndexByte(raw, '#'); i >= 0 {
			raw = raw[:i]
		}
		if len(raw) == 0 {
			continue
		}
		line := string(raw)
		fields := appendFields(fieldStore[:0], line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "task":
			// task <name> wcrt <rat>
			if len(fields) != 4 || fields[2] != "wcrt" {
				return nil, nil, lineError(lineNo, "expected 'task <name> wcrt <time>', got %q", line)
			}
			if err := l.checkTasks(len(g.Tasks()) + 1); err != nil {
				return nil, nil, err
			}
			wcrt, err := ratio.Parse(fields[3])
			if err != nil {
				return nil, nil, lineError(lineNo, "bad wcrt: %v", err)
			}
			if _, err := g.AddTask(fields[1], wcrt); err != nil {
				return nil, nil, lineError(lineNo, "%v", err)
			}
		case "buffer":
			// buffer <prod> -> <cons> prod <q> cons <q> [cap n] [bytes n]
			if len(fields) < 8 || fields[2] != "->" || fields[4] != "prod" || fields[6] != "cons" {
				return nil, nil, lineError(lineNo, "expected 'buffer <producer> -> <consumer> prod <quanta> cons <quanta> [cap n] [bytes n]', got %q", line)
			}
			if err := l.checkBuffers(len(g.Buffers()) + 1); err != nil {
				return nil, nil, err
			}
			prod, err := parseQuantaLimited(fields[5], l)
			if err != nil {
				if IsLimit(err) {
					return nil, nil, err
				}
				return nil, nil, lineError(lineNo, "bad production quanta: %v", err)
			}
			cons, err := parseQuantaLimited(fields[7], l)
			if err != nil {
				if IsLimit(err) {
					return nil, nil, err
				}
				return nil, nil, lineError(lineNo, "bad consumption quanta: %v", err)
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
					return nil, nil, lineError(lineNo, "dangling option %q", rest[0])
				}
				n, err := strconv.ParseInt(rest[1], 10, 64)
				if err != nil {
					return nil, nil, lineError(lineNo, "bad %s value %q", rest[0], rest[1])
				}
				switch rest[0] {
				case "cap":
					buf.Capacity = n
				case "bytes":
					buf.ContainerBytes = n
				default:
					return nil, nil, lineError(lineNo, "unknown buffer option %q", rest[0])
				}
				rest = rest[2:]
			}
			if _, err := g.AddBuffer(buf); err != nil {
				return nil, nil, lineError(lineNo, "%v", err)
			}
		case "constraint":
			// constraint <task> period <rat>
			if len(fields) != 4 || fields[2] != "period" {
				return nil, nil, lineError(lineNo, "expected 'constraint <task> period <time>', got %q", line)
			}
			if con != nil {
				return nil, nil, lineError(lineNo, "duplicate constraint")
			}
			period, err := ratio.Parse(fields[3])
			if err != nil {
				return nil, nil, lineError(lineNo, "bad period: %v", err)
			}
			con = &taskgraph.Constraint{Task: fields[1], Period: period}
		default:
			return nil, nil, lineError(lineNo, "unknown directive %q", fields[0])
		}
	}
	if con != nil {
		if err := con.Validate(g); err != nil {
			return nil, nil, err
		}
	}
	return g, con, nil
}

// lineError reports a syntax error on a line of a text document.
func lineError(lineNo int, format string, args ...any) error {
	return fmt.Errorf("graphio: line %d: %s", lineNo, fmt.Sprintf(format, args...))
}

// appendFields appends the fields of s to dst: the maximal runs of
// characters that are not Unicode white space, exactly as strings.Fields
// returns them (a byte that is not valid UTF-8 is not white space).
func appendFields(dst []string, s string) []string {
	start := -1 // offset of the field being scanned, or -1 between fields
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

var textBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// EncodeText renders a graph (and optional constraint) in the text format.
// The scratch buffer is pooled; the returned slice is the only retained
// allocation.
func EncodeText(g *taskgraph.Graph, c *taskgraph.Constraint) []byte {
	b := textBufPool.Get().(*bytes.Buffer)
	defer textBufPool.Put(b)
	b.Reset()
	for _, t := range g.Tasks() {
		fmt.Fprintf(b, "task %s wcrt %s\n", t.Name, t.WCRT)
	}
	for _, buf := range g.Buffers() {
		fmt.Fprintf(b, "buffer %s -> %s prod %s cons %s",
			buf.Producer, buf.Consumer, formatQuanta(buf.Prod), formatQuanta(buf.Cons))
		if buf.Capacity > 0 {
			fmt.Fprintf(b, " cap %d", buf.Capacity)
		}
		if buf.ContainerBytes > 0 {
			fmt.Fprintf(b, " bytes %d", buf.ContainerBytes)
		}
		b.WriteByte('\n')
	}
	if c != nil {
		fmt.Fprintf(b, "constraint %s period %s\n", c.Task, c.Period)
	}
	return append([]byte(nil), b.Bytes()...)
}

// parseQuanta accepts "7", "{2,3}" or "96..99".
func parseQuanta(s string) (taskgraph.QuantaSet, error) {
	return parseQuantaLimited(s, Limits{})
}

// parseQuantaLimited parses one quanta token, checking the set size limit
// before the values are materialised — in particular before a lo..hi range
// is expanded, so a tiny document cannot demand a huge allocation.
func parseQuantaLimited(s string, l Limits) (taskgraph.QuantaSet, error) {
	if strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}") {
		members := s[1 : len(s)-1]
		if err := l.checkQuanta(strings.Count(members, ",") + 1); err != nil {
			return taskgraph.QuantaSet{}, err
		}
		var store [16]int64
		vals := store[:0]
		for more := true; more; {
			var p string
			p, members, more = strings.Cut(members, ",")
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

// clampWidth narrows a range's width-minus-one to the full width as an int
// for reporting, saturating at MaxInt (the width of MinInt64..MaxInt64 is
// 2^64 and fits nowhere).
func clampWidth(wm1 uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if wm1 >= uint64(maxInt) {
		return maxInt
	}
	return int(wm1) + 1
}

// formatQuanta renders a set in the text syntax (single value or {...};
// ranges are not reconstructed).
func formatQuanta(q taskgraph.QuantaSet) string {
	if q.IsConstant() {
		return fmt.Sprintf("%d", q.Max())
	}
	return q.String() // already "{a,b,c}"
}

// DecodeAny sniffs the format: documents starting with '{' parse as JSON,
// anything else as the text format.
func DecodeAny(data []byte) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	for _, ch := range data {
		switch ch {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return Decode(data)
		default:
			return DecodeText(data)
		}
	}
	return nil, nil, fmt.Errorf("graphio: empty document")
}
