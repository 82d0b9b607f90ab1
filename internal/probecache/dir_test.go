package probecache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// fp returns a canonical fingerprint (64 lowercase hex digits) derived
// from name.
func fp(name string) string {
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:])
}

// TestDirPayloadConformance pins the directory tier's read/write
// contract: a missing directory or file is a miss, the first write
// creates the directory, payloads round-trip byte for byte under
// <dir>/<fingerprint>.json, neither the written nor the returned slice
// aliases the stored bytes, an overwrite replaces the payload, and no
// temp file outlives a write.
func TestDirPayloadConformance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-yet")

	if _, err := readPayload(dir, fp("missing")); !os.IsNotExist(err) {
		t.Fatalf("readPayload(no dir) = %v, want a not-exist error", err)
	}

	payload := []byte(`{"k":"v"}`)
	if err := writePayload(dir, fp("a"), payload); err != nil {
		t.Fatalf("writePayload: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, fp("a")+".json")); err != nil {
		t.Fatalf("payload not at <dir>/<fingerprint>.json: %v", err)
	}
	if _, err := readPayload(dir, fp("missing")); !os.IsNotExist(err) {
		t.Fatalf("readPayload(missing file) = %v, want a not-exist error", err)
	}

	payload[2] = 'X' // the stored bytes must not alias the caller's slice
	got, err := readPayload(dir, fp("a"))
	if err != nil || string(got) != `{"k":"v"}` {
		t.Fatalf("readPayload = %q, %v, want stored payload", got, err)
	}
	got[0] = 'Y' // mutating the returned slice must not poison the store
	if again, _ := readPayload(dir, fp("a")); string(again) != `{"k":"v"}` {
		t.Fatalf("readPayload after mutation = %q, store was poisoned", again)
	}

	if err := writePayload(dir, fp("a"), []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if got, _ := readPayload(dir, fp("a")); string(got) != "v2" {
		t.Fatalf("readPayload after overwrite = %q, want v2", got)
	}

	if err := writePayload(dir, fp("b"), []byte("bb")); err != nil {
		t.Fatalf("writePayload b: %v", err)
	}
	if got, _ := readPayload(dir, fp("b")); string(got) != "bb" {
		t.Fatalf("readPayload b = %q, want bb", got)
	}
	if got, _ := readPayload(dir, fp("a")); string(got) != "v2" {
		t.Fatalf("writing b changed a: %q", got)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{fp("a") + ".json": true, fp("b") + ".json": true}
	if len(entries) != len(want) {
		t.Fatalf("dir holds %d files, want exactly the two payloads", len(entries))
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("unexpected file %s left in the cache dir", e.Name())
		}
	}
}
