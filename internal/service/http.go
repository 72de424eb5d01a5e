package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/problems"
)

// NewHandler exposes a scheduler as an HTTP JSON API:
//
//	POST /v1/solve              submit a job; {"wait": true} blocks for the result
//	GET  /v1/jobs/{id}          job status / result
//	GET  /v1/jobs/{id}/events   live progress as newline-delimited JSON
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	GET  /v1/problems           registered benchmarks and strategies
//	GET  /healthz               liveness + pool headroom
//	GET  /metrics               expvar-style counters (Stats)
//
// Error responses are {"error": "..."} with ErrQueueFull mapped to 429,
// ErrBadRequest to 400, ErrNotFound to 404, ErrClosed to 503,
// ErrNoCalibration to 409, and both unsatisfiability proofs — a
// domain-reduction one (domain.ErrUnsatisfiable) and an auto-size
// target no walker count can meet (ErrUnsatisfiable) — to 422.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		body, err := decodeSolveBody(r.Body)
		if err != nil {
			writeError(w, err)
			return
		}
		if body.Wait {
			job, err := s.SubmitWait(r.Context(), body.Request)
			if err != nil {
				if job.ID != "" {
					// The client's wait expired but the job is live:
					// hand back its id so it can be polled or
					// cancelled rather than orphaned in the pool.
					w.Header().Set("Location", "/v1/jobs/"+job.ID)
					writeJSON(w, http.StatusRequestTimeout, map[string]any{"error": err.Error(), "job": job})
					return
				}
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, job)
			return
		}
		job, err := s.Submit(body.Request)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(w, r, s)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("GET /v1/problems", func(w http.ResponseWriter, r *http.Request) {
		names := problems.Names()
		infos := make([]problems.Info, 0, len(names))
		for _, n := range names {
			info, err := problems.Describe(n)
			if err != nil {
				continue
			}
			infos = append(infos, info)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"problems":   infos,
			"strategies": core.StrategyNames(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		status, code := "ok", http.StatusOK
		if s.Closed() {
			status, code = "shutting down", http.StatusServiceUnavailable
		}
		health := map[string]any{
			"status":      status,
			"slots":       st.Slots,
			"slots_busy":  st.SlotsBusy,
			"queue_depth": st.QueueDepth,
		}
		writeJSON(w, code, health)
	})
	// Served through expvar.Func so the payload is exactly what a
	// global expvar.Publish of Stats would produce, without touching
	// the process-global registry (which panics on double Publish and
	// would break multi-scheduler tests).
	statsVar := expvar.Func(func() any { return s.Stats() })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, statsVar.String())
	})
	return mux
}

// serveEvents streams one job's Scheduler.Watch flow as
// newline-delimited JSON: one ProgressEvent object per line, flushed
// as it happens, ending with the terminal event, whose "job" field is
// the same Job that GET /v1/jobs/{id} returns. An unknown job gets
// 404 before any line is written. Events are best-effort, so when the
// watch channel closes without its terminal event the line is rebuilt
// from the job's final snapshot; a response that ends without a
// terminal line (job evicted, client or server gone) means "fetch the
// job instead".
func serveEvents(w http.ResponseWriter, r *http.Request, s *Scheduler) {
	id := r.PathValue("id")
	ch, cancel, err := s.Watch(id)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	send := func(ev ProgressEvent) bool {
		return enc.Encode(ev) == nil && rc.Flush() == nil
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				if job, err := s.Get(id); err == nil && job.State.Terminal() {
					send(terminalEvent(id, job))
				}
				return
			}
			if !send(ev) || ev.Terminal {
				return
			}
		}
	}
}

// solveBody is the POST /v1/solve payload: a Request plus the
// sync/async switch.
type solveBody struct {
	Request
	// Wait makes the call synchronous: the response is the terminal
	// job, not the queued acknowledgement.
	Wait bool `json:"wait,omitempty"`
}

// maxSolveBodyLen caps the solve payload; a request that large is
// garbage long before the scheduler's own validation would say so.
const maxSolveBodyLen = 8 << 20

// decodeSolveBody parses one POST /v1/solve payload. Every decode
// failure wraps ErrBadRequest (the fuzz suite pins this), so transport
// mistakes and admission rejections surface through the same typed
// error the HTTP layer maps to 400.
func decodeSolveBody(r io.Reader) (solveBody, error) {
	var body solveBody
	if err := json.NewDecoder(io.LimitReader(r, maxSolveBodyLen)).Decode(&body); err != nil {
		return solveBody{}, fmt.Errorf("%w: invalid JSON: %v", ErrBadRequest, err)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, domain.ErrUnsatisfiable), errors.Is(err, ErrUnsatisfiable):
		// The model is well-formed but provably has no solution — or the
		// auto-size target is provably unreachable at any walker count:
		// the request was understood, the entity cannot be processed.
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrNoCalibration):
		// The request is fine but the server lacks the calibration state
		// to honor it; retry after calibrating (409, not 400 — nothing
		// about the request itself is wrong).
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The waiting client went away; 499-style. 408 is the closest
		// standard code.
		code = http.StatusRequestTimeout
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
