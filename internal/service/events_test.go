package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitEvents opens GET {base}/v1/jobs/{id}/events and decodes its
// newline-delimited JSON lines until the terminal event, which it
// returns. Every line must belong to id, and none may follow the
// terminal one. Safe to call from any goroutine.
func awaitEvents(client *http.Client, base, id string) (ProgressEvent, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return ProgressEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ProgressEvent{}, fmt.Errorf("events for %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return ProgressEvent{}, fmt.Errorf("events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return ProgressEvent{}, fmt.Errorf("event line %s: %v", sc.Bytes(), err)
		}
		if ev.JobID != id {
			return ProgressEvent{}, fmt.Errorf("event for job %q, watching %q", ev.JobID, id)
		}
		if ev.Terminal {
			if sc.Scan() {
				return ProgressEvent{}, fmt.Errorf("line after the terminal event: %s", sc.Bytes())
			}
			return ev, nil
		}
	}
	return ProgressEvent{}, fmt.Errorf("events for %s ended without a terminal line (scan error %v)", id, sc.Err())
}

// TestWatchLifecycle pins the event flow a watcher observes: at least
// a running transition, then exactly one terminal event carrying the
// job snapshot — and the channel closes after it.
func TestWatchLifecycle(t *testing.T) {
	s := New(Config{Slots: 4})
	defer s.Close()

	job, err := s.Submit(Request{Problem: "costas", Size: 8, Walkers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Watch(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var sawRunning bool
	var terminal *ProgressEvent
	for ev := range ch {
		if ev.JobID != job.ID {
			t.Fatalf("event for %q, watching %q", ev.JobID, job.ID)
		}
		if ev.State == StateRunning && ev.Walker == -1 {
			sawRunning = true
		}
		if ev.Terminal {
			e := ev
			terminal = &e
		}
	}
	if terminal == nil {
		t.Fatal("channel closed without a terminal event")
	}
	if !sawRunning && terminal.Job.State != StateSolved {
		// A fast solve may finish before the watcher attaches; then the
		// terminal snapshot alone is the contract.
		t.Fatal("no running event and job not solved")
	}
	if terminal.Job == nil || terminal.Job.Result == nil || !terminal.Job.Result.Solved {
		t.Fatalf("terminal event lacks a solved result: %+v", terminal)
	}

	// Watching an already-terminal job yields the terminal event
	// immediately from the snapshot.
	ch2, cancel2, err := s.Watch(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	select {
	case ev, ok := <-ch2:
		if !ok || !ev.Terminal || ev.Job == nil {
			t.Fatalf("late watcher: ok=%v ev=%+v", ok, ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late watcher got no immediate terminal event")
	}

	if _, _, err := s.Watch("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Watch(unknown) = %v, want ErrNotFound", err)
	}
}

// TestJobEventsZeroGetPolling is the transport acceptance test: a
// client that submits async and awaits the result on the events route
// issues no GET /v1/jobs/{id} polls, and the terminal line's job is
// the record GET /v1/jobs/{id} serves.
func TestJobEventsZeroGetPolling(t *testing.T) {
	s := New(Config{Slots: 4})
	defer s.Close()

	var statusGets atomic.Int64
	h := NewHandler(s)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && !strings.HasSuffix(r.URL.Path, "/events") {
			statusGets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"problem":"costas","size":8,"walkers":2,"seed":11}`))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status=%d job=%+v", resp.StatusCode, job)
	}

	ev, err := awaitEvents(srv.Client(), srv.URL, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := ev.Job
	if got == nil || got.State != StateSolved || got.Result == nil || !got.Result.Solved {
		t.Fatalf("terminal event job: %+v", got)
	}
	if ev.State != got.State {
		t.Fatalf("terminal event state %s, job state %s", ev.State, got.State)
	}
	if len(got.Result.Solution) != 8 {
		t.Fatalf("solution length %d, want 8", len(got.Result.Solution))
	}
	if n := statusGets.Load(); n != 0 {
		t.Fatalf("client issued %d GET /v1/jobs/{id} polls, want 0", n)
	}

	// One codec: the embedded job encodes exactly like the GET record.
	final, err := s.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(final)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("events/GET divergence:\nevents: %s\nGET:    %s", have, want)
	}
}

// TestJobEventsUnknownJob: the events route answers a job the service
// never heard of with 404 and an error body, not an open stream.
func TestJobEventsUnknownJob(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 2})
	var body map[string]string
	resp := getJSON(t, srv.URL+"/v1/jobs/no-such-job/events", &body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if body["error"] == "" {
		t.Fatalf("404 without an error payload: %v", body)
	}
}

// TestJobEventsConcurrentJobs: several jobs watched at once over
// concurrent events requests each get their own flow and terminal.
func TestJobEventsConcurrentJobs(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 4})
	const n = 4
	ids := make([]string, n)
	for i := range ids {
		job, err := s.Submit(Request{Problem: "costas", Size: 9, Walkers: 1, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ev, err := awaitEvents(srv.Client(), srv.URL, id)
			if err != nil {
				errs <- err
				return
			}
			if ev.Job == nil || ev.Job.ID != id || ev.Job.State != StateSolved || ev.Job.Result == nil {
				errs <- fmt.Errorf("terminal for %s: %+v", id, ev.Job)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
