package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// streamHandshakeTimeout bounds the wire handshake on both sides. A
// peer that cannot exchange two tiny Hello frames in this window is
// not going to carry board deltas either.
const streamHandshakeTimeout = 10 * time.Second

// ---------------------------------------------------------------------
// Hub side: the coordinator's streaming board listener.

// ensureStream starts the hub's stream listener on first use and
// returns the advertised host:port workers dial (RunRequest.
// BoardStream). Like the HTTP board server it is lazy: fleets that
// never negotiate streaming open no port.
func (h *boardHub) ensureStream() (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sln != nil {
		return h.streamBase, nil
	}
	addr := h.streamAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dist: starting board stream listener on %s: %w", addr, err)
	}
	h.sln = ln
	h.streamBase = ln.Addr().String()
	go h.acceptStreams(ln)
	return h.streamBase, nil
}

// acceptStreams runs the stream listener's accept loop until the
// listener is closed (hub shutdown).
func (h *boardHub) acceptStreams(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(nc)
		h.mu.Lock()
		if h.sln == nil {
			// Shut down between Accept and registration.
			h.mu.Unlock()
			_ = c.Close()
			return
		}
		h.conns[c] = struct{}{}
		h.mu.Unlock()
		go h.serveStream(c)
	}
}

// serveStream drives one worker connection: handshake, then a frame
// loop multiplexing any number of job subscriptions and publishes.
// Publishes share the HTTP path's verification (boardEntry.merge) and
// improvements broadcast to every subscriber — including the
// publisher, whose echo carries the new generation.
func (h *boardHub) serveStream(c *wire.Conn) {
	defer h.dropStreamConn(c)
	if _, err := c.AcceptHandshake("board-hub", streamHandshakeTimeout); err != nil {
		return
	}
	for {
		typ, payload, err := c.ReadFrame()
		if err != nil {
			return
		}
		switch typ {
		case wire.TypeSubscribe:
			sub, err := wire.DecodeSubscribe(payload)
			if err != nil {
				return
			}
			entry := h.lookup(sub.Job)
			if entry == nil {
				// Unknown job: benign (the job may have just finished).
				// Nothing to subscribe to; the worker's cache simply
				// stays local.
				continue
			}
			entry.mu.Lock()
			entry.subs[c] = struct{}{}
			entry.mu.Unlock()
			// Seed the subscriber with the current global state so a
			// late-joining shard adopts the leaders' elite immediately.
			cost, cfg, ok, gen := entry.state()
			if err := c.WriteBoardSync(&wire.BoardSync{Job: sub.Job, Valid: ok, Cost: int64(cost), Gen: gen, Cfg: cfg}); err != nil {
				return
			}
		case wire.TypeBoardSync:
			m, err := wire.DecodeBoardSync(payload)
			if err != nil {
				return
			}
			entry := h.lookup(m.Job)
			if entry == nil {
				continue
			}
			improved, err := entry.merge(m.Valid, int(m.Cost), m.Cfg)
			if err != nil {
				// A rejected claim (failed verification) does not
				// poison the connection: other jobs multiplexed on it
				// are fine, and the publisher degrades to its own walk.
				continue
			}
			if improved {
				h.broadcast(m.Job, entry)
			}
		default:
			// Unknown frame types are skipped for forward compatibility.
		}
	}
}

// broadcast pushes the entry's current state to every stream
// subscriber of the job. Writes happen outside the entry lock (each
// wire.Conn serializes its own writes under a deadline); a subscriber
// that cannot be written to is dropped by closing its connection,
// which unwinds its serve loop.
func (h *boardHub) broadcast(jobID string, entry *boardEntry) {
	entry.mu.Lock()
	cost, cfg, ok := entry.board.Snapshot()
	gen := entry.gen
	subs := make([]*wire.Conn, 0, len(entry.subs))
	for c := range entry.subs {
		subs = append(subs, c)
	}
	entry.mu.Unlock()
	if !ok {
		return
	}
	msg := wire.BoardSync{Job: jobID, Valid: true, Cost: int64(cost), Gen: gen, Cfg: cfg}
	for _, c := range subs {
		if err := c.WriteBoardSync(&msg); err != nil {
			_ = c.Close()
		}
	}
}

// dropStreamConn unregisters a dead connection everywhere, folding its
// byte counters into the hub totals before it goes.
func (h *boardHub) dropStreamConn(c *wire.Conn) {
	_ = c.Close()
	h.mu.Lock()
	delete(h.conns, c)
	for _, entry := range h.boards {
		entry.mu.Lock()
		delete(entry.subs, c)
		entry.mu.Unlock()
	}
	h.mu.Unlock()
	h.mRxBytes.Add(c.BytesRead())
	h.mTxBytes.Add(c.BytesWritten())
}

// severStreams closes every live stream connection while keeping the
// listener up — the failure the reconnect/fallback test injects: a
// worker's session dies mid-run and must degrade to HTTP, then
// re-dial on its next run.
func (h *boardHub) severStreams() {
	h.mu.Lock()
	conns := make([]*wire.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// ---------------------------------------------------------------------
// Worker side: one persistent multiplexed connection per hub address.

// streamPool maintains the worker's persistent board stream
// connections, one per coordinator hub address, shared by every
// concurrent shard run against that coordinator. A dead session is
// removed from the pool; the next run re-dials.
type streamPool struct {
	mu    sync.Mutex
	conns map[string]*streamSess
}

func newStreamPool() *streamPool {
	return &streamPool{conns: make(map[string]*streamSess)}
}

// sess returns the pool's live session to the hub at addr, dialing a
// fresh connection if none exists.
func (p *streamPool) sess(addr string) (*streamSess, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.conns[addr]; s != nil {
		return s, nil
	}
	conn, err := wire.Dial(addr, "worker", streamHandshakeTimeout)
	if err != nil {
		return nil, err
	}
	s := &streamSess{pool: p, addr: addr, conn: conn, boards: make(map[string]*remoteBoard), dead: make(chan struct{})}
	p.conns[addr] = s
	go s.readLoop()
	return s, nil
}

// join attaches a shard run's board cache to the hub at addr,
// subscribing it to the job's delta flow. The returned session is
// shared; the caller detaches with remoteBoard.stop -> sess.leave.
func (p *streamPool) join(addr, job string, b *remoteBoard) (*streamSess, error) {
	s, err := p.sess(addr)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.failed {
		s.mu.Unlock()
		return nil, fmt.Errorf("dist: board stream to %s is down", addr)
	}
	s.boards[job] = b
	s.mu.Unlock()
	if err := s.conn.WriteSubscribe(job); err != nil {
		s.fail()
		s.leave(job)
		return nil, err
	}
	return s, nil
}

// close tears down every session (worker shutdown).
func (p *streamPool) close() {
	p.mu.Lock()
	sessions := make([]*streamSess, 0, len(p.conns))
	for _, s := range p.conns {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()
	for _, s := range sessions {
		s.fail()
	}
}

// streamSess is one live multiplexed connection to a hub. Its reader
// goroutine routes incoming board deltas to the subscribed caches by
// job key; writers (the caches' flush paths) go through the wire
// connection's serialized writes.
type streamSess struct {
	pool *streamPool
	addr string
	conn *wire.Conn

	mu     sync.Mutex
	boards map[string]*remoteBoard
	failed bool

	dead     chan struct{}
	deadOnce sync.Once
}

// readLoop dispatches incoming frames until the connection dies.
func (s *streamSess) readLoop() {
	for {
		typ, payload, err := s.conn.ReadFrame()
		if err != nil {
			s.fail()
			return
		}
		if typ != wire.TypeBoardSync {
			continue
		}
		m, err := wire.DecodeBoardSync(payload)
		if err != nil {
			s.fail()
			return
		}
		s.mu.Lock()
		b := s.boards[m.Job]
		s.mu.Unlock()
		if b != nil {
			b.applyGlobal(m.Valid, int(m.Cost), m.Cfg, m.Gen)
		}
	}
}

// publish pushes one local improvement for job over the stream.
func (s *streamSess) publish(job string, cost int, cfg []int, gen uint64) error {
	err := s.conn.WriteBoardSync(&wire.BoardSync{Job: job, Valid: true, Cost: int64(cost), Gen: gen, Cfg: cfg})
	if err != nil {
		s.fail()
	}
	return err
}

// alive reports whether the session is still usable.
func (s *streamSess) alive() bool {
	select {
	case <-s.dead:
		return false
	default:
		return true
	}
}

// leave detaches a job's cache from the session. The connection stays
// up for other jobs (and future ones); job keys are coordinator-unique
// so a finished job's straggler frames route nowhere.
func (s *streamSess) leave(job string) {
	s.mu.Lock()
	delete(s.boards, job)
	s.mu.Unlock()
}

// fail marks the session dead, closes the connection, wakes every
// attached cache (their runStream loops fall back to HTTP) and removes
// the session from the pool so the next run dials fresh.
func (s *streamSess) fail() {
	s.mu.Lock()
	s.failed = true
	s.mu.Unlock()
	s.deadOnce.Do(func() { close(s.dead) })
	_ = s.conn.Close()
	s.pool.mu.Lock()
	if s.pool.conns[s.addr] == s {
		delete(s.pool.conns, s.addr)
	}
	s.pool.mu.Unlock()
}

// traffic sums the pool's live connection byte counters.
func (p *streamPool) traffic() (rx, tx int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.conns {
		rx += s.conn.BytesRead()
		tx += s.conn.BytesWritten()
	}
	return rx, tx
}
