package cachestore

import (
	"context"
	"sort"
	"sync"

	"vrdfcap/internal/budget"
)

// Mem is an in-memory backend: a mutex-guarded map of copied payloads.
// It is the zero-dependency tier — the default fallback a Resilient
// wrapper demotes to, and the store behind a -cache-backend mem: run.
type Mem struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

func (b *Mem) String() string { return "mem:" }

// Len returns the number of stored fingerprints.
func (b *Mem) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// Read implements Backend.
func (b *Mem) Read(ctx context.Context, fingerprint string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, budget.Classify(err)
	}
	b.mu.Lock()
	data, ok := b.m[fingerprint]
	b.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), data...), nil
}

// Write implements Backend.
func (b *Mem) Write(ctx context.Context, fingerprint string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return budget.Classify(err)
	}
	if err := validFingerprint(fingerprint); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	b.mu.Lock()
	b.m[fingerprint] = cp
	b.mu.Unlock()
	return nil
}

// Delete implements Backend.
func (b *Mem) Delete(ctx context.Context, fingerprint string) error {
	if err := ctx.Err(); err != nil {
		return budget.Classify(err)
	}
	b.mu.Lock()
	delete(b.m, fingerprint)
	b.mu.Unlock()
	return nil
}

// List implements Backend.
func (b *Mem) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, budget.Classify(err)
	}
	b.mu.Lock()
	out := make([]string, 0, len(b.m))
	for fp := range b.m {
		out = append(out, fp)
	}
	b.mu.Unlock()
	sort.Strings(out)
	return out, nil
}
