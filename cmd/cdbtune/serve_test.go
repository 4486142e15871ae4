package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// eventServer serves body as the NDJSON progress stream of every job.
func eventServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestFollowEventsStreamClosedEarly: a stream that closes before its final
// line — the server shut down or drained mid-job — must not read as
// success, and the error names the job and the last stage seen.
func TestFollowEventsStreamClosedEarly(t *testing.T) {
	srv := eventServer(t, `{"seq":1,"stage":"queued","message":"waiting"}
{"seq":2,"stage":"train","message":"episode 1"}
`)
	err := followEvents(srv.URL, "job-0007")
	if err == nil {
		t.Fatal("a stream without a final event reported success")
	}
	for _, want := range []string{"job-0007", "train"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestFollowEventsFinalLine(t *testing.T) {
	srv := eventServer(t, `{"seq":1,"stage":"train","message":"episode 1"}
{"final":true,"job":{"id":"job-0007","state":"done"}}
`)
	if err := followEvents(srv.URL, "job-0007"); err != nil {
		t.Fatalf("a job that ended done: %v", err)
	}
	srv = eventServer(t, `{"final":true,"job":{"id":"job-0007","state":"failed","error":"boom"}}
`)
	if err := followEvents(srv.URL, "job-0007"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("a job that ended failed: err = %v", err)
	}
}
