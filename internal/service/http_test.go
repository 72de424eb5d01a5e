package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPSolveSync(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 4})
	req := map[string]any{"problem": "costas", "size": 8, "walkers": 2, "seed": 3, "wait": true}
	resp, body := postJSON(t, srv.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != StateSolved || job.Result == nil || !job.Result.Solved {
		t.Fatalf("sync solve: %+v", job)
	}
	if len(job.Result.Solution) != 8 {
		t.Fatalf("solution length %d, want 8", len(job.Result.Solution))
	}
}

func TestHTTPSolveAsyncAndPoll(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 4})
	resp, body := postJSON(t, srv.URL+"/v1/solve", map[string]any{"problem": "costas", "size": 8, "seed": 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State != StateQueued {
		t.Fatalf("async ack: %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Await the terminal state on the events route, then check the
	// status record agrees with it.
	ev, err := awaitEvents(srv.Client(), srv.URL, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Job == nil || ev.Job.State != StateSolved {
		t.Fatalf("job finished %+v", ev.Job)
	}
	var cur Job
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &cur); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cur.State != StateSolved || cur.Result == nil || cur.Result.Winner != ev.Job.Result.Winner {
		t.Fatalf("GET record %+v disagrees with terminal event %+v", cur, ev.Job)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 2})
	cases := []struct {
		body any
		want int
	}{
		{map[string]any{"problem": "no-such"}, http.StatusBadRequest},
		{map[string]any{"problem": "costas", "walkers": 64}, http.StatusBadRequest},
		{map[string]any{"problem": "costas", "strategy": "nope"}, http.StatusBadRequest},
		{"not an object", http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, body := postJSON(t, srv.URL+"/v1/solve", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status = %d, want %d (%s)", i, resp.StatusCode, c.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("case %d: no error payload: %s", i, body)
		}
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 1, QueueDepth: 1})
	hard := map[string]any{"problem": "magic-square", "size": 30, "timeout_ms": 60_000}
	_, body := postJSON(t, srv.URL+"/v1/solve", hard)
	var running Job
	if err := json.Unmarshal(body, &running); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, running.ID, StateRunning)
	if resp, _ := postJSON(t, srv.URL+"/v1/solve", hard); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job not queued: %d", resp.StatusCode)
	}
	resp, body := postJSON(t, srv.URL+"/v1/solve", hard)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
}

func TestHTTPCancel(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 1})
	_, body := postJSON(t, srv.URL+"/v1/solve", map[string]any{"problem": "magic-square", "size": 30, "timeout_ms": 60_000})
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateRunning)
	resp, body := postJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %s", resp.StatusCode, body)
	}
	waitForState(t, s, job.ID, StateCancelled)
}

func TestHTTPJobNotFound(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 1})
	if resp := getJSON(t, srv.URL+"/v1/jobs/j999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPProblemsRegistry(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 1})
	var out struct {
		Problems []struct {
			Name        string `json:"Name"`
			DefaultSize int    `json:"DefaultSize"`
		} `json:"problems"`
		Strategies []string `json:"strategies"`
	}
	if resp := getJSON(t, srv.URL+"/v1/problems", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	names := map[string]bool{}
	for _, p := range out.Problems {
		names[p.Name] = true
		if p.DefaultSize <= 0 {
			t.Errorf("problem %s has no default size", p.Name)
		}
	}
	for _, want := range []string{"costas", "magic-square", "all-interval", "perfect-square"} {
		if !names[want] {
			t.Errorf("registry listing missing %q", want)
		}
	}
	if len(out.Strategies) < 3 {
		t.Errorf("strategies = %v, want at least the 3 built-ins", out.Strategies)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 2})
	var health map[string]any
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	if _, err := s.SubmitWait(nil, fastReq()); err != nil {
		t.Fatal(err)
	}
	var st Stats
	if resp := getJSON(t, srv.URL+"/metrics", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if st.Slots != 2 || st.JobsSubmitted != 1 || st.JobsSolved != 1 {
		t.Fatalf("metrics: %+v", st)
	}
	if st.Iterations <= 0 && st.JobsSolved == 1 {
		// A very fast solve may finish inside the first CheckEvery
		// window without a Progress callback; only flag the clearly
		// broken case of negative counters.
		if st.Iterations < 0 {
			t.Fatalf("negative iteration counter: %+v", st)
		}
	}
}

// TestHTTPLoad drives a mixed workload through the real HTTP stack —
// the in-process version of the loadgen smoke scenario.
func TestHTTPLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario skipped in -short mode")
	}
	_, srv := newTestServer(t, Config{Slots: 8, QueueDepth: 128})
	client := srv.Client()
	const n = 60
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			probs := []string{"costas", "queens", "all-interval"}
			sizes := []int{8, 16, 8}
			req := map[string]any{
				"problem": probs[i%3], "size": sizes[i%3],
				"walkers": 1 + i%2, "seed": i + 1, "wait": true,
			}
			buf, _ := json.Marshal(req)
			for {
				resp, err := client.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				var job Job
				err = json.NewDecoder(resp.Body).Decode(&job)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d for %+v", resp.StatusCode, job)
					return
				}
				if !job.State.Terminal() {
					errs <- fmt.Errorf("non-terminal sync response: %+v", job)
					return
				}
				if job.State == StateFailed {
					errs <- fmt.Errorf("job failed: %s", job.Error)
					return
				}
				errs <- nil
				return
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && !strings.Contains(err.Error(), "EOF") {
			t.Error(err)
		}
	}
}

// TestHTTPProblemParams covers the finite-domain params plumbing end to
// end: a timetable job with explicit params solves through POST
// /v1/solve, unknown or invalid params are typed 400 rejections
// (ErrBadParams at the scheduler layer), and a provably unsatisfiable
// instance is a synchronous 422 — the admission-time domain-reduction
// proof, not an asynchronous job failure.
func TestHTTPProblemParams(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 4})

	// Happy path: explicit params shape the instance; the job solves.
	req := map[string]any{
		"problem": "timetable", "size": 20, "walkers": 2, "seed": 9, "wait": true,
		"params": map[string]int{"slots": 6, "rooms": 4, "teachers": 4},
	}
	resp, body := postJSON(t, srv.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != StateSolved || job.Result == nil || !job.Result.Solved {
		t.Fatalf("params solve: %+v", job)
	}
	if len(job.Result.Solution) != 20 {
		t.Fatalf("solution length %d, want 20", len(job.Result.Solution))
	}
	if job.Request.Params["slots"] != 6 {
		t.Fatalf("params not retained on the job snapshot: %+v", job.Request)
	}

	// Typed param rejections: 400 over HTTP, ErrBadParams at the API.
	badCases := []map[string]any{
		{"problem": "timetable", "params": map[string]int{"professors": 3}},
		{"problem": "timetable", "params": map[string]int{"rooms": 0}},
		{"problem": "queens", "params": map[string]int{"slots": 2}},
	}
	for i, c := range badCases {
		resp, body := postJSON(t, srv.URL+"/v1/solve", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad params case %d: status = %d, want 400 (%s)", i, resp.StatusCode, body)
		}
	}
	var reqBad Request
	reqBad.Problem = "timetable"
	reqBad.Params = map[string]int{"professors": 3}
	if _, err := s.Submit(reqBad); !errors.Is(err, ErrBadParams) || !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Submit bad params: err = %v, want ErrBadParams wrapping ErrBadRequest", err)
	}

	// Unsatisfiable: the reduction proof surfaces synchronously as 422.
	unsat := map[string]any{
		"problem": "timetable", "size": 3,
		"params": map[string]int{"rooms": 1, "slots": 2, "teachers": 3},
	}
	resp, body = postJSON(t, srv.URL+"/v1/solve", unsat)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unsat status = %d, want 422 (%s)", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "unsatisfiable") {
		t.Fatalf("unsat error payload: %s", body)
	}
}
