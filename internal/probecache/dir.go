package probecache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The persistence tier is a directory of <fingerprint>.json files, one
// per fingerprint. Every write is atomic (temp file + fsync + rename), so a
// crash mid-write never leaves a torn payload where a complete one used
// to be, and a reader racing a writer sees the old or the new payload,
// never a mixture.

// fileSuffix names payload files: <fingerprint>.json.
const fileSuffix = ".json"

// validFingerprint rejects keys that could escape the directory.
// Canonical fingerprints (GraphKey) are 64 lowercase hex digits; any
// path-safe name is accepted so tests and future keys stay flexible.
func validFingerprint(fp string) error {
	if fp == "" {
		return errors.New("probecache: empty fingerprint")
	}
	if len(fp) > 256 {
		return fmt.Errorf("probecache: fingerprint longer than 256 bytes (%d)", len(fp))
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return fmt.Errorf("probecache: fingerprint %q holds unsafe byte %q", fp, c)
		}
	}
	if fp[0] == '.' {
		return fmt.Errorf("probecache: fingerprint %q must not start with a dot", fp)
	}
	return nil
}

// readPayload returns the payload stored under fingerprint in dir. A
// missing file or directory is an error like any other: every caller
// treats a failed read as a cache miss.
func readPayload(dir, fingerprint string) ([]byte, error) {
	if err := validFingerprint(fingerprint); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, fingerprint+fileSuffix))
}

// writePayload stores data under fingerprint in dir, creating dir on
// first use. The payload lands durably before the rename publishes it:
// the temp file is fsynced first (otherwise a crash after the rename
// could leave a name pointing at zero-length or partial content), and
// the directory is fsynced best-effort afterwards so the rename itself
// survives a crash on filesystems that need it.
func writePayload(dir, fingerprint string, data []byte) error {
	if err := validFingerprint(fingerprint); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("probecache: create cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, fingerprint+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(dir, fingerprint+fileSuffix))
	}
	if werr != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the write error wins
		return werr
	}
	// Best-effort: not every platform or filesystem supports fsync on a
	// directory handle, and the payload itself is already durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
