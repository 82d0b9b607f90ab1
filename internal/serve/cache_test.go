package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"
)

// TestServeCacheDisabledIs404 pins the closed write surface: a default
// server exposes no verdict-store route, so reads and writes to the
// former cache path under /v1/ are plain 404s, and /statsz decodes into
// Stats with no field left over.
func TestServeCacheDisabledIs404(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	defer ts.Close()

	url := ts.URL + path.Join("/v1", "cache", strings.Repeat("ab", 32))
	for _, method := range []string{http.MethodPut, http.MethodDelete, http.MethodGet} {
		req, err := http.NewRequest(method, url, strings.NewReader(`{"advisory":true}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", method, url, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	var st Stats
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("/statsz does not decode into Stats: %v", err)
	}
	// The /statsz read itself is not a counted response.
	if st.Requests != 3 || st.Errors != 3 {
		t.Errorf("stats %+v, want 3 requests, all errors", st)
	}
}
