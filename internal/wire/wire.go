// Package wire is the streaming control plane's binary codec: a
// length-prefixed frame format and hand-rolled encoders/decoders for
// the two per-tick flows that hold a persistent connection — elite
// board sync deltas between coordinator and workers, and job progress
// events from the service to streaming clients. It exists because
// re-marshalling JSON per tick is what those flows would otherwise
// pay; the binary layout is a few percent of the JSON size and encodes
// with zero allocations through a reusable Encoder (see
// BenchmarkBoardSyncCodec in internal/dist).
//
// Low-rate control messages — shard dispatch, cancel, fleet register,
// heartbeat and deregister, and shard progress reports — have no
// binary form: they travel as HTTP/JSON only (see internal/dist).
//
// The package is stdlib-only and imports nothing from this repository,
// so every layer (dist, service, cmds, examples) can speak it without
// cycles; internal/dist and internal/service own the conversions to
// and from their own structs.
//
// # Frame format
//
//	frame   := uvarint(length) byte(type) payload
//	length  := len(payload) + 1           (the type byte is counted)
//
// Varints are unsigned LEB128 (little-endian base-128, low 7 bits
// first — encoding/binary's format); signed fields use zigzag. Strings
// are uvarint length + UTF-8 bytes. Fixed-width fields (the handshake
// magic, packed configuration values) are explicitly little-endian. Configurations — the bulk of board traffic — are
// packed as fixed-width little-endian values sized to the largest
// element (1, 2 or 4 bytes), falling back to zigzag varints when a
// value is negative:
//
//	ints := byte(width) uvarint(count) values...   width ∈ {0,1,2,4}; 0 = zigzag varints
//
// Frames are capped at MaxFrame; every decode error is (or wraps) one
// of the typed errors, and decoders never panic on adversarial input
// (FuzzWireDecode pins this).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Protocol identity, exchanged in the Hello handshake.
const (
	// Magic is the first four bytes on every stream connection,
	// little-endian "RPW1".
	Magic uint32 = 0x31575052
	// Version is the protocol version; peers with mismatched versions
	// fail the handshake and fall back to HTTP/JSON.
	Version byte = 1
)

// MaxFrame caps one frame (type byte + payload). It matches the HTTP
// paths' board-sync body cap: it must hold one configuration of any
// protocol-legal instance.
const MaxFrame = 16 << 20

// Frame types.
const (
	// TypeHello opens a connection in both directions.
	TypeHello byte = 0x01
	// TypeBoardSync carries one elite-board delta (either direction).
	TypeBoardSync byte = 0x02
	// TypeSubscribe attaches the connection to a job's event flow
	// (board deltas on a dist stream, progress events on a service
	// stream).
	TypeSubscribe byte = 0x03
	// TypeProgress carries one job progress event.
	TypeProgress byte = 0x04
)

// Structural caps applied at decode time, before any allocation.
const (
	maxString = 4096
	maxElems  = 1 << 20
)

// Typed decode errors.
var (
	// ErrFrameTooBig reports a frame length above MaxFrame (or a
	// message that would encode above it).
	ErrFrameTooBig = errors.New("wire: frame exceeds size cap")
	// ErrTruncated reports input that ended mid-frame or mid-field.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrMalformed reports structurally invalid bytes: bad varints,
	// out-of-cap strings or slices, unknown layout modes.
	ErrMalformed = errors.New("wire: malformed payload")
)

// Hello is the connection handshake, sent first by both peers.
type Hello struct {
	// Role names the peer ("coordinator", "worker", "client",
	// "service") for diagnostics; it carries no protocol meaning.
	Role string
}

// Subscribe attaches the connection to one job's event flow.
type Subscribe struct {
	Job string
}

// BoardSync is one elite-board delta: the publisher's current best
// (Valid false when it has none), stamped with the board generation
// the publisher last saw. Gen lets the receiver answer "unchanged"
// instead of re-sending a configuration the peer already holds.
type BoardSync struct {
	Job   string
	Valid bool
	Cost  int64
	Gen   uint64
	Cfg   []int
}

// Progress is one job progress event: a lifecycle transition
// (queued→running→terminal) or a per-walker milestone (Walker >= 0).
// Terminal events carry the condensed result so a streaming client
// needs no follow-up status poll.
type Progress struct {
	Job        string
	State      string
	Walker     int64 // -1 for lifecycle events
	Iterations int64
	Cost       int64
	Terminal   bool
	Error      string
	Result     *ProgressResult // non-nil only on terminal events
}

// ProgressResult condenses a terminal job result for the stream.
// BestCost is the best known final cost across walkers that actually
// ran, or -1 when no walker reported one — the unknown-cost sentinel
// (core.CostUnknown, math.MaxInt) never crosses the wire as a cost.
type ProgressResult struct {
	Solved           bool
	Winner           int64
	WinnerStrategy   string
	WinnerIterations int64
	TotalIterations  int64
	Completed        int64
	Truncated        bool
	ElapsedMS        int64
	Adoptions        int64
	Yielded          int64
	BestCost         int64
	Solution         []int
}

// ---------------------------------------------------------------------
// Append-style primitives (encode side).

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendInts packs an int slice as fixed-width little-endian values
// sized to the largest element, or zigzag varints when any value is
// negative (or absurdly large).
func appendInts(dst []byte, v []int) []byte {
	width := byte(1)
	for _, x := range v {
		if x < 0 || uint64(x) > math.MaxUint32 {
			width = 0
			break
		}
		switch {
		case x > math.MaxUint16 && width < 4:
			width = 4
		case x > math.MaxUint8 && width < 2:
			width = 2
		}
	}
	dst = append(dst, width)
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	switch width {
	case 0:
		for _, x := range v {
			dst = binary.AppendVarint(dst, int64(x))
		}
	case 1:
		for _, x := range v {
			dst = append(dst, byte(x))
		}
	case 2:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(x))
		}
	default:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	}
	return dst
}

// ---------------------------------------------------------------------
// Cursor-style decoder. Every accessor records the first failure and
// returns zero values afterwards, so message decoders read linearly
// and check d.err once.

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: uvarint overflow", ErrMalformed))
		}
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: varint overflow", ErrMalformed))
		}
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bool out of range", ErrMalformed))
		return false
	}
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.fail(fmt.Errorf("%w: string of %d bytes exceeds %d", ErrMalformed, n, maxString))
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) ints() []int {
	width := d.byte()
	count := d.uvarint()
	if d.err != nil {
		return nil
	}
	if count > maxElems {
		d.fail(fmt.Errorf("%w: %d values exceed %d", ErrMalformed, count, maxElems))
		return nil
	}
	// Every value occupies at least one byte in every mode, so a count
	// above the remaining bytes is malformed — checked before the
	// allocation, keeping adversarial counts cheap.
	if count > uint64(len(d.buf)) {
		d.fail(ErrTruncated)
		return nil
	}
	if count == 0 {
		return nil
	}
	out := make([]int, count)
	switch width {
	case 0:
		for i := range out {
			out[i] = int(d.varint())
		}
	case 1:
		for i := range out {
			out[i] = int(d.byte())
		}
	case 2:
		if uint64(len(d.buf)) < 2*count {
			d.fail(ErrTruncated)
			return nil
		}
		for i := range out {
			out[i] = int(binary.LittleEndian.Uint16(d.buf[2*i:]))
		}
		d.buf = d.buf[2*count:]
	case 4:
		if uint64(len(d.buf)) < 4*count {
			d.fail(ErrTruncated)
			return nil
		}
		for i := range out {
			out[i] = int(binary.LittleEndian.Uint32(d.buf[4*i:]))
		}
		d.buf = d.buf[4*count:]
	default:
		d.fail(fmt.Errorf("%w: unknown int width %d", ErrMalformed, width))
		return nil
	}
	if d.err != nil {
		return nil
	}
	return out
}

// finish asserts the payload was consumed exactly.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf))
	}
	return nil
}

// ---------------------------------------------------------------------
// Message payloads. AppendX produces the payload only (no frame
// header); DecodeX parses exactly one payload.

// AppendHello appends a Hello payload: fixed little-endian magic,
// version byte, role.
func AppendHello(dst []byte, h *Hello) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = append(dst, Version)
	return appendString(dst, h.Role)
}

// DecodeHello parses a Hello payload, verifying magic and version.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) < 5 {
		return Hello{}, ErrTruncated
	}
	if got := binary.LittleEndian.Uint32(p); got != Magic {
		return Hello{}, fmt.Errorf("%w: bad magic %#x", ErrMalformed, got)
	}
	if p[4] != Version {
		return Hello{}, fmt.Errorf("%w: protocol version %d (want %d)", ErrMalformed, p[4], Version)
	}
	d := decoder{buf: p[5:]}
	h := Hello{Role: d.string()}
	return h, d.finish()
}

// AppendSubscribe appends a Subscribe payload.
func AppendSubscribe(dst []byte, s *Subscribe) []byte {
	return appendString(dst, s.Job)
}

// DecodeSubscribe parses a Subscribe payload.
func DecodeSubscribe(p []byte) (Subscribe, error) {
	d := decoder{buf: p}
	s := Subscribe{Job: d.string()}
	return s, d.finish()
}

// AppendBoardSync appends a BoardSync payload.
func AppendBoardSync(dst []byte, m *BoardSync) []byte {
	dst = appendString(dst, m.Job)
	dst = appendBool(dst, m.Valid)
	dst = binary.AppendVarint(dst, m.Cost)
	dst = binary.AppendUvarint(dst, m.Gen)
	return appendInts(dst, m.Cfg)
}

// DecodeBoardSync parses a BoardSync payload.
func DecodeBoardSync(p []byte) (BoardSync, error) {
	d := decoder{buf: p}
	m := BoardSync{
		Job:   d.string(),
		Valid: d.bool(),
		Cost:  d.varint(),
		Gen:   d.uvarint(),
		Cfg:   d.ints(),
	}
	return m, d.finish()
}

// AppendProgress appends a Progress payload.
func AppendProgress(dst []byte, p *Progress) []byte {
	dst = appendString(dst, p.Job)
	dst = appendString(dst, p.State)
	dst = binary.AppendVarint(dst, p.Walker)
	dst = binary.AppendVarint(dst, p.Iterations)
	dst = binary.AppendVarint(dst, p.Cost)
	dst = appendBool(dst, p.Terminal)
	dst = appendString(dst, p.Error)
	dst = appendBool(dst, p.Result != nil)
	if r := p.Result; r != nil {
		dst = appendBool(dst, r.Solved)
		dst = binary.AppendVarint(dst, r.Winner)
		dst = appendString(dst, r.WinnerStrategy)
		dst = binary.AppendVarint(dst, r.WinnerIterations)
		dst = binary.AppendVarint(dst, r.TotalIterations)
		dst = binary.AppendVarint(dst, r.Completed)
		dst = appendBool(dst, r.Truncated)
		dst = binary.AppendVarint(dst, r.ElapsedMS)
		dst = binary.AppendVarint(dst, r.Adoptions)
		dst = binary.AppendVarint(dst, r.Yielded)
		dst = binary.AppendVarint(dst, r.BestCost)
		dst = appendInts(dst, r.Solution)
	}
	return dst
}

// DecodeProgress parses a Progress payload.
func DecodeProgress(p []byte) (Progress, error) {
	d := decoder{buf: p}
	ev := Progress{
		Job:        d.string(),
		State:      d.string(),
		Walker:     d.varint(),
		Iterations: d.varint(),
		Cost:       d.varint(),
		Terminal:   d.bool(),
		Error:      d.string(),
	}
	if d.bool() {
		ev.Result = &ProgressResult{
			Solved:           d.bool(),
			Winner:           d.varint(),
			WinnerStrategy:   d.string(),
			WinnerIterations: d.varint(),
			TotalIterations:  d.varint(),
			Completed:        d.varint(),
			Truncated:        d.bool(),
			ElapsedMS:        d.varint(),
			Adoptions:        d.varint(),
			Yielded:          d.varint(),
			BestCost:         d.varint(),
			Solution:         d.ints(),
		}
	}
	return ev, d.finish()
}

// ---------------------------------------------------------------------
// Framing.

// Encoder frames messages with a reusable scratch buffer: steady-state
// encodes allocate nothing once the scratch has grown to the working
// set. An Encoder is not safe for concurrent use.
type Encoder struct {
	scratch []byte
}

// frame appends uvarint(len(scratch)+1), the type byte and the scratch
// payload to dst.
func (e *Encoder) frame(dst []byte, typ byte) ([]byte, error) {
	if len(e.scratch)+1 > MaxFrame {
		return dst, ErrFrameTooBig
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.scratch)+1))
	dst = append(dst, typ)
	return append(dst, e.scratch...), nil
}

// HelloFrame appends a framed Hello to dst.
func (e *Encoder) HelloFrame(dst []byte, h *Hello) ([]byte, error) {
	e.scratch = AppendHello(e.scratch[:0], h)
	return e.frame(dst, TypeHello)
}

// SubscribeFrame appends a framed Subscribe to dst.
func (e *Encoder) SubscribeFrame(dst []byte, s *Subscribe) ([]byte, error) {
	e.scratch = AppendSubscribe(e.scratch[:0], s)
	return e.frame(dst, TypeSubscribe)
}

// BoardSyncFrame appends a framed BoardSync to dst.
func (e *Encoder) BoardSyncFrame(dst []byte, m *BoardSync) ([]byte, error) {
	e.scratch = AppendBoardSync(e.scratch[:0], m)
	return e.frame(dst, TypeBoardSync)
}

// ProgressFrame appends a framed Progress to dst.
func (e *Encoder) ProgressFrame(dst []byte, p *Progress) ([]byte, error) {
	e.scratch = AppendProgress(e.scratch[:0], p)
	return e.frame(dst, TypeProgress)
}

// DecodeFrame splits one frame off data, returning its type, payload
// and the remaining bytes. io.ErrUnexpectedEOF-style partial input is
// ErrTruncated; a clean empty input is reported as (0, nil, nil, nil)
// rest with zero length — callers detect end-of-input by len(data).
func DecodeFrame(data []byte) (typ byte, payload, rest []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil, nil
	}
	n, w := binary.Uvarint(data)
	if w <= 0 {
		if w == 0 {
			return 0, nil, nil, ErrTruncated
		}
		return 0, nil, nil, fmt.Errorf("%w: frame length overflow", ErrMalformed)
	}
	if n == 0 {
		return 0, nil, nil, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	if n > MaxFrame {
		return 0, nil, nil, ErrFrameTooBig
	}
	data = data[w:]
	if uint64(len(data)) < n {
		return 0, nil, nil, ErrTruncated
	}
	return data[0], data[1:n], data[n:], nil
}
