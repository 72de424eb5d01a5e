// Package telemetry is an FTDC-style append-only metrics recorder:
// periodic integer samples (per-walker iteration counts, adoption and
// yield totals, queue depth, board sync bytes) written as
// schema-delta-encoded frames to a compact log that cmd/experiments
// -ftdc-decode parses offline.
//
// The encoding borrows the two ideas that make MongoDB-style full-time
// diagnostic data capture cheap: (1) metric names are written once per
// schema, not per sample — a schema frame is emitted only when the
// name set changes; (2) samples carry only *changed* values, as a
// bitmask over the schema's fields plus one zigzag varint delta per
// set bit. An idle server's sample is a timestamp delta and a bitmask
// of zeros — a few bytes — while a hot one still only pays for the
// counters that moved.
//
// # Layout
//
// The file is a sequence of length-prefixed frames (uvarint length
// prefix counting the kind byte):
//
//	frame  := uvarint(length) byte(kind) payload
//	schema := uvarint(n) n × (uvarint(len) name-bytes)
//	sample := varint(ts_delta_ms) bitmask(ceil(n/8)) deltas...
//
// The first sample after a schema frame is its own baseline: its
// timestamp delta is relative to zero (absolute Unix milliseconds)
// and its values are deltas against zero (absolute values), with every
// bit set. Later samples are deltas against the previous sample. The
// bitmask is little-endian: bit i of byte i/8 covers schema field i.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Frame kinds.
const (
	kindSchema byte = 0x01
	kindSample byte = 0x02
)

// maxFrame caps one telemetry frame on the read side; a schema or
// sample larger than this is corruption, not data.
const maxFrame = 1 << 20

// maxMetrics caps the schema width.
const maxMetrics = 1 << 16

// ErrCorrupt reports a telemetry log that failed structural decoding.
var ErrCorrupt = errors.New("telemetry: corrupt log")

// Metric is one named integer observation.
type Metric struct {
	Name  string
	Value int64
}

// Sample is one decoded observation row.
type Sample struct {
	TS      time.Time
	Metrics []Metric
}

// Recorder appends schema-delta-encoded samples to w. It is safe for
// concurrent use; writes are serialized. The recorder never fails a
// caller on a short write — Record returns the error, but the next
// call proceeds from consistent state (the frame either landed whole
// or the decoder stops at the tear).
type Recorder struct {
	mu     sync.Mutex
	w      io.Writer
	schema []string
	prev   []int64
	prevTS int64
	buf    []byte
}

// NewRecorder writes frames to w. The caller owns w's lifecycle
// (typically an *os.File it closes after the last Record).
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w}
}

// Record appends one sample. The metric name set (in order) is the
// schema; when it differs from the previous call's, a schema frame is
// emitted first and the delta baseline resets. Callers should keep a
// stable order (sorted names) to avoid spurious schema churn.
func (r *Recorder) Record(ts time.Time, metrics []Metric) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	if len(metrics) > maxMetrics {
		return fmt.Errorf("telemetry: %d metrics exceed %d", len(metrics), maxMetrics)
	}
	if !r.sameSchema(metrics) {
		if err := r.writeSchema(metrics); err != nil {
			return err
		}
	}

	ms := ts.UnixMilli()
	nbits := (len(metrics) + 7) / 8
	r.buf = r.buf[:0]
	r.buf = binary.AppendVarint(r.buf, ms-r.prevTS)
	maskAt := len(r.buf)
	for i := 0; i < nbits; i++ {
		r.buf = append(r.buf, 0)
	}
	for i, m := range metrics {
		d := m.Value - r.prev[i]
		if d == 0 {
			continue
		}
		r.buf[maskAt+i/8] |= 1 << (i % 8)
		r.buf = binary.AppendVarint(r.buf, d)
	}
	if err := r.writeFrame(kindSample, r.buf); err != nil {
		return err
	}
	r.prevTS = ms
	for i, m := range metrics {
		r.prev[i] = m.Value
	}
	return nil
}

func (r *Recorder) sameSchema(metrics []Metric) bool {
	if len(metrics) != len(r.schema) {
		return false
	}
	for i, m := range metrics {
		if m.Name != r.schema[i] {
			return false
		}
	}
	return true
}

// writeSchema emits a schema frame and resets the delta baseline.
func (r *Recorder) writeSchema(metrics []Metric) error {
	r.buf = r.buf[:0]
	r.buf = binary.AppendUvarint(r.buf, uint64(len(metrics)))
	for _, m := range metrics {
		r.buf = binary.AppendUvarint(r.buf, uint64(len(m.Name)))
		r.buf = append(r.buf, m.Name...)
	}
	if err := r.writeFrame(kindSchema, r.buf); err != nil {
		return err
	}
	r.schema = r.schema[:0]
	for _, m := range metrics {
		r.schema = append(r.schema, m.Name)
	}
	r.prev = make([]int64, len(metrics))
	r.prevTS = 0
	return nil
}

func (r *Recorder) writeFrame(kind byte, payload []byte) error {
	var hdr [binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)+1))
	hdr[n] = kind
	if _, err := r.w.Write(hdr[:n+1]); err != nil {
		return err
	}
	_, err := r.w.Write(payload)
	return err
}

// Decode reads a telemetry log back into samples. A log torn mid-frame
// (process killed between Write calls) yields the complete prefix plus
// ErrCorrupt; callers that expect tearing can use the samples anyway.
func Decode(rd io.Reader) ([]Sample, error) {
	br := newByteReader(rd)
	var (
		out    []Sample
		schema []string
		prev   []int64
		prevTS int64
	)
	for {
		length, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("%w: frame length: %v", ErrCorrupt, err)
		}
		if length == 0 || length > maxFrame {
			return out, fmt.Errorf("%w: frame of %d bytes", ErrCorrupt, length)
		}
		frame := make([]byte, length)
		if _, err := io.ReadFull(br, frame); err != nil {
			return out, fmt.Errorf("%w: torn frame: %v", ErrCorrupt, err)
		}
		kind, payload := frame[0], frame[1:]
		switch kind {
		case kindSchema:
			schema, err = decodeSchema(payload)
			if err != nil {
				return out, err
			}
			prev = make([]int64, len(schema))
			prevTS = 0
		case kindSample:
			if schema == nil {
				return out, fmt.Errorf("%w: sample before schema", ErrCorrupt)
			}
			s, err := decodeSample(payload, schema, prev, &prevTS)
			if err != nil {
				return out, err
			}
			out = append(out, s)
		default:
			return out, fmt.Errorf("%w: unknown frame kind %#x", ErrCorrupt, kind)
		}
	}
}

func decodeSchema(p []byte) ([]string, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > maxMetrics {
		return nil, fmt.Errorf("%w: schema header", ErrCorrupt)
	}
	p = p[w:]
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, w := binary.Uvarint(p)
		if w <= 0 || uint64(len(p[w:])) < l {
			return nil, fmt.Errorf("%w: schema name %d", ErrCorrupt, i)
		}
		names = append(names, string(p[w:w+int(l)]))
		p = p[w+int(l):]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing schema bytes", ErrCorrupt, len(p))
	}
	return names, nil
}

// decodeSample reconstructs one row, mutating prev and prevTS to carry
// the running absolute values forward.
func decodeSample(p []byte, schema []string, prev []int64, prevTS *int64) (Sample, error) {
	dts, w := binary.Varint(p)
	if w <= 0 {
		return Sample{}, fmt.Errorf("%w: sample timestamp", ErrCorrupt)
	}
	p = p[w:]
	nbits := (len(schema) + 7) / 8
	if len(p) < nbits {
		return Sample{}, fmt.Errorf("%w: sample bitmask", ErrCorrupt)
	}
	mask := p[:nbits]
	p = p[nbits:]
	for i := range schema {
		if mask[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		d, w := binary.Varint(p)
		if w <= 0 {
			return Sample{}, fmt.Errorf("%w: sample delta for %s", ErrCorrupt, schema[i])
		}
		prev[i] += d
		p = p[w:]
	}
	if len(p) != 0 {
		return Sample{}, fmt.Errorf("%w: %d trailing sample bytes", ErrCorrupt, len(p))
	}
	*prevTS += dts
	s := Sample{TS: time.UnixMilli(*prevTS), Metrics: make([]Metric, len(schema))}
	for i, name := range schema {
		s.Metrics[i] = Metric{Name: name, Value: prev[i]}
	}
	return s, nil
}

// byteReader adapts any reader for binary.ReadUvarint without
// double-buffering files that are already in memory.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func newByteReader(r io.Reader) *byteReader {
	return &byteReader{r: r}
}

func (b *byteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(b.r, b.one[:])
	return b.one[0], err
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }
