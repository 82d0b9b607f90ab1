package graphio

import (
	"errors"
	"fmt"

	"vrdfcap/internal/taskgraph"
)

// Limits bounds the size and structure of decoded documents so a service
// can accept graphs from untrusted callers. The zero value of any field
// means "unlimited" in that dimension; the zero Limits therefore behaves
// exactly like the unlimited Decode functions.
//
// The guards run before the expensive work they bound: MaxBytes is checked
// against the raw input before any parsing, MaxTasks/MaxBuffers during (or
// immediately after) parsing, and MaxQuanta before a lo..hi range is
// expanded — a 20-byte document must not be able to demand a
// 900-million-entry quanta set.
type Limits struct {
	// MaxBytes caps the raw input size in bytes.
	MaxBytes int
	// MaxTasks caps the number of task declarations.
	MaxTasks int
	// MaxBuffers caps the number of buffer declarations.
	MaxBuffers int
	// MaxQuanta caps the number of values in one quanta set (set members,
	// or the width of a lo..hi range before it is expanded).
	MaxQuanta int
}

// DefaultLimits are the limits a service should start from: roomy enough
// for every graph in this repository (the §5 MP3 chain, the generated
// soak graphs) with two orders of magnitude to spare, small enough that a
// hostile document cannot make the parser allocate unbounded memory.
var DefaultLimits = Limits{
	MaxBytes:   1 << 20, // 1 MiB of input
	MaxTasks:   4096,
	MaxBuffers: 4096,
	MaxQuanta:  4096,
}

// LimitError reports which limit a document exceeded. Callers distinguish
// it from syntax errors with errors.As (a service maps it to 413 while a
// malformed document is a 400).
type LimitError struct {
	// What names the limited dimension: "input bytes", "tasks", "buffers"
	// or "quanta set values".
	What string
	// Limit is the configured maximum; Got is the observed value (for
	// incremental checks, the count at which the limit was first crossed).
	Limit, Got int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("graphio: %s limit exceeded: %d > %d", e.What, e.Got, e.Limit)
}

// IsLimit reports whether err stems from a LimitError.
func IsLimit(err error) bool {
	var le *LimitError
	return errors.As(err, &le)
}

// checkBytes guards the raw input size.
func (l Limits) checkBytes(n int) error {
	if l.MaxBytes > 0 && n > l.MaxBytes {
		return &LimitError{What: "input bytes", Limit: l.MaxBytes, Got: n}
	}
	return nil
}

// checkTasks guards the task count.
func (l Limits) checkTasks(n int) error {
	if l.MaxTasks > 0 && n > l.MaxTasks {
		return &LimitError{What: "tasks", Limit: l.MaxTasks, Got: n}
	}
	return nil
}

// checkBuffers guards the buffer count.
func (l Limits) checkBuffers(n int) error {
	if l.MaxBuffers > 0 && n > l.MaxBuffers {
		return &LimitError{What: "buffers", Limit: l.MaxBuffers, Got: n}
	}
	return nil
}

// checkQuanta guards the size of one quanta set. It must run before a
// range is expanded, so callers pass the would-be length.
func (l Limits) checkQuanta(n int) error {
	if l.MaxQuanta > 0 && n > l.MaxQuanta {
		return &LimitError{What: "quanta set values", Limit: l.MaxQuanta, Got: n}
	}
	return nil
}

// DecodeLimited parses JSON into a graph and optional constraint,
// enforcing the limits. The zero Limits is equivalent to Decode.
func DecodeLimited(data []byte, l Limits) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	return decodeJSON(data, l)
}

// DecodeTextLimited parses the text format, enforcing the limits. The zero
// Limits is equivalent to DecodeText.
func DecodeTextLimited(data []byte, l Limits) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	return decodeText(data, l)
}

// DecodeAnyLimited sniffs the format like DecodeAny, enforcing the limits.
func DecodeAnyLimited(data []byte, l Limits) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	if err := l.checkBytes(len(data)); err != nil {
		return nil, nil, err
	}
	for _, ch := range data {
		switch ch {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return decodeJSON(data, l)
		default:
			return decodeText(data, l)
		}
	}
	return nil, nil, fmt.Errorf("graphio: empty document")
}
