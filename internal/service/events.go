package service

import "fmt"

// ProgressEvent is one entry in a job's live event flow, consumed
// through Scheduler.Watch. Three kinds share the type:
//
//   - lifecycle: Walker == -1, Terminal == false — the job started
//     running;
//   - walker milestone: Walker >= 0 — a periodic, per-walker
//     (iterations, cost) sample, throttled to at most one per walker
//     per progressEventInterval;
//   - terminal: Terminal == true, Job holds the final snapshot
//     (result or error included).
//
// Events are delivered best-effort: a slow subscriber loses
// intermediate events rather than stalling the walkers (the send is
// non-blocking into a bounded buffer). Only the channel close is
// reliable, so consumers that need the final state re-fetch it with
// Get when the channel closes without a terminal event.
//
// The JSON form is one line of GET /v1/jobs/{id}/events.
type ProgressEvent struct {
	JobID      string `json:"job_id"`
	State      State  `json:"state"`
	Walker     int    `json:"walker"` // -1 for lifecycle and terminal events
	Iterations int64  `json:"iterations"`
	Cost       int    `json:"cost"`
	Terminal   bool   `json:"terminal"`
	Job        *Job   `json:"job,omitempty"` // final snapshot, set only on terminal events
}

// watchBuffer is each subscriber channel's capacity. Milestones are
// throttled per walker, so the buffer only has to absorb short
// consumer stalls, not the walkers' raw progress rate.
const watchBuffer = 64

// Watch subscribes to a job's progress events. The returned channel
// is closed once the job reaches a terminal state (the terminal event,
// buffer permitting, is the last value before the close); the returned
// cancel function detaches early and is idempotent. Watching an
// already-finished job yields its terminal event immediately. This is
// the seam GET /v1/jobs/{id}/events serves job progress from, and it
// is equally usable in process.
func (s *Scheduler) Watch(id string) (<-chan ProgressEvent, func(), error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	ch := make(chan ProgressEvent, watchBuffer)
	j.watchMu.Lock()
	if j.watchDone {
		j.watchMu.Unlock()
		snap := j.snapshot()
		ch <- terminalEvent(j.id, snap)
		close(ch)
		return ch, func() {}, nil
	}
	j.watchers = append(j.watchers, ch)
	j.watchMu.Unlock()
	cancel := func() { j.unwatch(ch) }
	return ch, cancel, nil
}

// terminalEvent builds the final event from a terminal job snapshot.
func terminalEvent(id string, snap Job) ProgressEvent {
	return ProgressEvent{JobID: id, State: snap.State, Walker: -1, Terminal: true, Job: &snap}
}

// emit fans one event out to every subscriber, never blocking: a full
// buffer drops the event for that subscriber.
func (j *job) emit(ev ProgressEvent) {
	j.watchMu.Lock()
	for _, ch := range j.watchers {
		select {
		case ch <- ev:
		default:
		}
	}
	j.watchMu.Unlock()
}

// finishWatchers delivers the terminal event and closes every
// subscriber channel. Called exactly once, after the job's terminal
// transition is fully published (finalize closed j.done), so a woken
// subscriber that re-fetches the job observes the terminal snapshot.
func (j *job) finishWatchers(snap Job) {
	ev := terminalEvent(j.id, snap)
	j.watchMu.Lock()
	ws := j.watchers
	j.watchers = nil
	j.watchDone = true
	j.watchMu.Unlock()
	for _, ch := range ws {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
}

// unwatch detaches one subscriber early. If the job already finished,
// the channel was closed by finishWatchers and there is nothing to do.
func (j *job) unwatch(ch chan ProgressEvent) {
	j.watchMu.Lock()
	defer j.watchMu.Unlock()
	for i, w := range j.watchers {
		if w == ch {
			j.watchers = append(j.watchers[:i:i], j.watchers[i+1:]...)
			return
		}
	}
}
