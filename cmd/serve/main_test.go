package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestPprofHandlerSmoke pins the -pprof surface: the dedicated mux
// answers the profile index and the cheap always-available profiles,
// and nothing outside /debug/pprof/ exists on it.
func TestPprofHandlerSmoke(t *testing.T) {
	ts := httptest.NewServer(pprofHandler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	status, body := get("/debug/pprof/")
	if status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("profile index: status %d, body %.80q", status, body)
	}
	if status, _ := get("/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("cmdline profile: status %d", status)
	}
	if status, body := get("/debug/pprof/goroutine?debug=1"); status != http.StatusOK || !strings.Contains(body, "goroutine profile") {
		t.Fatalf("goroutine profile: status %d, body %.80q", status, body)
	}
	if status, _ := get("/v1/models"); status != http.StatusNotFound {
		t.Fatalf("the pprof listener must serve profiles only, got status %d for /v1/models", status)
	}
}

// TestExploreRejectsBadRequests: against the real simulator backend, a
// request naming an unknown study or app, or a trace length outside
// [0, MaxTraceLen], is a 400 whose message names the field, and no job
// is queued. An unknown app once passed submission and panicked the
// process in the simulation fan-out; the server must stay healthy.
func TestExploreRejectsBadRequests(t *testing.T) {
	reg := serve.NewRegistry()
	defer reg.Close()
	store := serve.NewJobStore(reg, simBackend(3000), 1, 4, serve.CoalesceOpts{})
	defer store.Close()
	ts := httptest.NewServer(serve.NewWithJobs(reg, store))
	defer ts.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	cases := []struct {
		name, body, field string
	}{
		{"unknown study", `{"name":"x","study":"bogus","app":"mcf","budget":50}`, "study"},
		{"unknown app", `{"name":"x","study":"memory","app":"bogus","budget":50}`, "app"},
		{"negative traceLen", `{"name":"x","study":"memory","app":"mcf","traceLen":-5,"budget":50}`, "traceLen"},
		{"oversized traceLen", fmt.Sprintf(`{"name":"x","study":"memory","app":"mcf","traceLen":%d,"budget":50}`, serve.MaxTraceLen+1), "traceLen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(tc.body)
			if status != http.StatusBadRequest || !strings.Contains(body, tc.field) {
				t.Fatalf("status %d, body %q; want 400 naming %q", status, body, tc.field)
			}
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz answered %d after the rejected request", resp.StatusCode)
			}
		})
	}
	if jobs := store.List(); len(jobs) != 0 {
		t.Fatalf("rejected requests left %d jobs behind", len(jobs))
	}
	// Control: the same request with a known app is accepted.
	if status, body := post(`{"name":"x","study":"memory","app":"mcf","budget":20,"batch":20}`); status != http.StatusAccepted {
		t.Fatalf("valid request: status %d, body %q", status, body)
	}
}
