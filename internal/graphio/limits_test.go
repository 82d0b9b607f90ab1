package graphio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// chainText builds a text document with n tasks in a chain.
func chainText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "task t%d wcrt 1\n", i)
	}
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "buffer t%d -> t%d prod 1 cons 1\n", i, i+1)
	}
	return b.String()
}

// chainJSON builds the JSON form of the same chain.
func chainJSON(n int) string {
	var b strings.Builder
	b.WriteString(`{"tasks":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"t%d","wcrt":"1"}`, i)
	}
	b.WriteString(`],"buffers":[`)
	for i := 0; i+1 < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"producer":"t%d","consumer":"t%d","prod":[1],"cons":[1]}`, i, i+1)
	}
	b.WriteString(`]}`)
	return b.String()
}

func wantLimit(t *testing.T, err error, what string) {
	t.Helper()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want LimitError(%s), got %v", what, err)
	}
	if le.What != what {
		t.Fatalf("want limit on %q, got %q (%v)", what, le.What, err)
	}
	if !IsLimit(err) {
		t.Fatalf("IsLimit false for %v", err)
	}
}

func TestLimitsZeroValueIsUnlimited(t *testing.T) {
	doc := chainText(64)
	if _, _, err := DecodeAnyLimited([]byte(doc), Limits{}); err != nil {
		t.Fatalf("zero limits rejected a valid document: %v", err)
	}
}

func TestLimitsMaxBytes(t *testing.T) {
	doc := []byte(chainText(4))
	l := Limits{MaxBytes: len(doc) - 1}
	for name, decode := range map[string]func([]byte, Limits) error{
		"any":  func(d []byte, l Limits) error { _, _, err := DecodeAnyLimited(d, l); return err },
		"text": func(d []byte, l Limits) error { _, _, err := DecodeTextLimited(d, l); return err },
	} {
		if err := decode(doc, l); err == nil {
			t.Fatalf("%s: oversized input accepted", name)
		} else {
			wantLimit(t, err, "input bytes")
		}
	}
	j := []byte(chainJSON(4))
	if _, _, err := DecodeLimited(j, Limits{MaxBytes: len(j) - 1}); err == nil {
		t.Fatal("json: oversized input accepted")
	} else {
		wantLimit(t, err, "input bytes")
	}
}

func TestLimitsMaxTasks(t *testing.T) {
	l := Limits{MaxTasks: 3}
	if _, _, err := DecodeTextLimited([]byte(chainText(4)), l); err == nil {
		t.Fatal("text: 4 tasks accepted under MaxTasks=3")
	} else {
		wantLimit(t, err, "tasks")
	}
	if _, _, err := DecodeLimited([]byte(chainJSON(4)), l); err == nil {
		t.Fatal("json: 4 tasks accepted under MaxTasks=3")
	} else {
		wantLimit(t, err, "tasks")
	}
	if _, _, err := DecodeTextLimited([]byte(chainText(3)), l); err != nil {
		t.Fatalf("text: 3 tasks rejected under MaxTasks=3: %v", err)
	}
}

func TestLimitsMaxBuffers(t *testing.T) {
	l := Limits{MaxBuffers: 2}
	if _, _, err := DecodeTextLimited([]byte(chainText(4)), l); err == nil {
		t.Fatal("text: 3 buffers accepted under MaxBuffers=2")
	} else {
		wantLimit(t, err, "buffers")
	}
	if _, _, err := DecodeLimited([]byte(chainJSON(4)), l); err == nil {
		t.Fatal("json: 3 buffers accepted under MaxBuffers=2")
	} else {
		wantLimit(t, err, "buffers")
	}
}

func TestLimitsMaxQuantaSet(t *testing.T) {
	doc := "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod {1,2,3,4} cons 1"
	if _, _, err := DecodeTextLimited([]byte(doc), Limits{MaxQuanta: 3}); err == nil {
		t.Fatal("text: 4-member set accepted under MaxQuanta=3")
	} else {
		wantLimit(t, err, "quanta set values")
	}
	j := `{"tasks":[{"name":"a","wcrt":"1"},{"name":"b","wcrt":"1"}],` +
		`"buffers":[{"producer":"a","consumer":"b","prod":[1,2,3,4],"cons":[1]}]}`
	if _, _, err := DecodeLimited([]byte(j), Limits{MaxQuanta: 3}); err == nil {
		t.Fatal("json: 4-member set accepted under MaxQuanta=3")
	} else {
		wantLimit(t, err, "quanta set values")
	}
}

// TestLimitsRangeNotExpanded is the DoS case the limit exists for: a tiny
// document demanding a near-2^63-wide range must be rejected by width,
// before the slice would be allocated.
func TestLimitsRangeNotExpanded(t *testing.T) {
	doc := "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 0..9223372036854775806 cons 1"
	_, _, err := DecodeTextLimited([]byte(doc), Limits{MaxQuanta: 1024})
	if err == nil {
		t.Fatal("astronomically wide range accepted")
	}
	wantLimit(t, err, "quanta set values")

	// Within the limit the same syntax still works.
	ok := "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1..8 cons 1"
	if _, _, err := DecodeTextLimited([]byte(ok), Limits{MaxQuanta: 8}); err != nil {
		t.Fatalf("8-wide range rejected under MaxQuanta=8: %v", err)
	}
}

func TestDefaultLimitsAcceptRepoDocuments(t *testing.T) {
	if _, _, err := DecodeAnyLimited([]byte(mp3Text), DefaultLimits); err != nil {
		t.Fatalf("DefaultLimits rejected the MP3 chain: %v", err)
	}
}

// TestDefaultLimitsAcceptLongLine pins that a line's length is bounded
// only by MaxBytes: testdata/mp3.txt with a 70,000-byte comment line, 71 KB
// in all, decodes under DefaultLimits to the graph mp3.txt decodes to. A
// bufio.Scanner caps a line at 64 KiB and rejected this document.
func TestDefaultLimitsAcceptLongLine(t *testing.T) {
	doc, err := os.ReadFile("../../testdata/mp3.txt")
	if err != nil {
		t.Fatal(err)
	}
	long := append([]byte("# "+strings.Repeat("x", 70000-3)+"\n"), doc...)
	if len(long) > DefaultLimits.MaxBytes {
		t.Fatalf("document of %d bytes exceeds DefaultLimits", len(long))
	}
	g, c, err := DecodeAnyLimited(long, DefaultLimits)
	if err != nil {
		t.Fatalf("DefaultLimits rejected mp3.txt with a long comment line: %v", err)
	}
	wg, wc, err := DecodeAny(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EncodeText(g, c), EncodeText(wg, wc); !bytes.Equal(got, want) {
		t.Fatalf("decoded to\n%s\nwant\n%s", got, want)
	}
}

func TestLimitErrorMessage(t *testing.T) {
	err := &LimitError{What: "tasks", Limit: 3, Got: 7}
	want := "graphio: tasks limit exceeded: 7 > 3"
	if err.Error() != want {
		t.Fatalf("got %q, want %q", err.Error(), want)
	}
}
