package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// defaultWriteTimeout bounds one frame write. A peer that cannot drain
// a few-hundred-byte frame in this window is effectively dead; callers
// drop the connection on error and fall back to HTTP.
const defaultWriteTimeout = 10 * time.Second

// Conn is a framed stream connection: a net.Conn plus buffered frame
// reads, mutex-serialized frame writes (so several subscriptions can
// share one multiplexed connection), reusable encode/read buffers and
// rx/tx byte counters for telemetry.
//
// Reads are single-consumer: exactly one goroutine may call ReadFrame,
// and the returned payload is only valid until the next call. Writes
// are safe for concurrent use.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	rbuf []byte // read buffer, reused across frames

	wmu          sync.Mutex
	enc          Encoder
	wbuf         []byte
	writeTimeout time.Duration

	rx atomic.Int64
	tx atomic.Int64
}

// NewConn wraps an established net.Conn. The caller still owes the
// handshake (Handshake client-side, AcceptHandshake server-side).
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, 32<<10), writeTimeout: defaultWriteTimeout}
}

// Dial connects to addr and performs the client side of the handshake.
func Dial(addr, role string, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = defaultWriteTimeout
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := NewConn(nc)
	if err := c.Handshake(role, timeout); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Handshake runs the client side: send Hello, await the peer's Hello.
func (c *Conn) Handshake(role string, timeout time.Duration) error {
	if err := c.writeFrame(func(e *Encoder, dst []byte) ([]byte, error) {
		return e.HelloFrame(dst, &Hello{Role: role})
	}); err != nil {
		return err
	}
	return c.awaitHello(timeout)
}

// AcceptHandshake runs the server side: await the client's Hello, then
// answer with ours. It returns the client's Hello.
func (c *Conn) AcceptHandshake(role string, timeout time.Duration) (Hello, error) {
	h, err := c.readHello(timeout)
	if err != nil {
		return Hello{}, err
	}
	if err := c.writeFrame(func(e *Encoder, dst []byte) ([]byte, error) {
		return e.HelloFrame(dst, &Hello{Role: role})
	}); err != nil {
		return Hello{}, err
	}
	return h, nil
}

func (c *Conn) awaitHello(timeout time.Duration) error {
	_, err := c.readHello(timeout)
	return err
}

func (c *Conn) readHello(timeout time.Duration) (Hello, error) {
	if timeout > 0 {
		_ = c.c.SetReadDeadline(time.Now().Add(timeout))
		defer c.c.SetReadDeadline(time.Time{})
	}
	typ, payload, err := c.ReadFrame()
	if err != nil {
		return Hello{}, fmt.Errorf("wire: handshake: %w", err)
	}
	if typ != TypeHello {
		return Hello{}, fmt.Errorf("%w: handshake expected hello, got frame type %#x", ErrMalformed, typ)
	}
	h, err := DecodeHello(payload)
	if err != nil {
		return Hello{}, fmt.Errorf("wire: handshake: %w", err)
	}
	return h, nil
}

// ReadFrame blocks for the next frame and returns its type and
// payload. The payload aliases an internal buffer reused by the next
// call; decode it (or copy it) before reading again. A cleanly closed
// peer surfaces io.EOF.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading frame length: %v", ErrTruncated, err)
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooBig
	}
	if uint64(cap(c.rbuf)) < n {
		c.rbuf = make([]byte, n)
	}
	buf := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: reading %d-byte frame: %v", ErrTruncated, n, err)
	}
	c.rx.Add(int64(n))
	return buf[0], buf[1:], nil
}

// writeFrame serializes one frame through the shared encoder and
// writes it under the write deadline.
func (c *Conn) writeFrame(build func(*Encoder, []byte) ([]byte, error)) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	out, err := build(&c.enc, c.wbuf[:0])
	if err != nil {
		return err
	}
	c.wbuf = out[:0]
	if c.writeTimeout > 0 {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	_, err = c.c.Write(out)
	if err == nil {
		c.tx.Add(int64(len(out)))
	}
	return err
}

// WriteSubscribe sends a Subscribe frame.
func (c *Conn) WriteSubscribe(job string) error {
	return c.writeFrame(func(e *Encoder, dst []byte) ([]byte, error) {
		return e.SubscribeFrame(dst, &Subscribe{Job: job})
	})
}

// WriteBoardSync sends a BoardSync frame.
func (c *Conn) WriteBoardSync(m *BoardSync) error {
	return c.writeFrame(func(e *Encoder, dst []byte) ([]byte, error) {
		return e.BoardSyncFrame(dst, m)
	})
}

// WriteProgress sends a Progress frame.
func (c *Conn) WriteProgress(p *Progress) error {
	return c.writeFrame(func(e *Encoder, dst []byte) ([]byte, error) {
		return e.ProgressFrame(dst, p)
	})
}

// Close closes the underlying connection. Safe to call concurrently
// with reads and writes; both then fail and the caller unwinds.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address for diagnostics.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// BytesRead returns the cumulative payload bytes received.
func (c *Conn) BytesRead() int64 { return c.rx.Load() }

// BytesWritten returns the cumulative frame bytes sent.
func (c *Conn) BytesWritten() int64 { return c.tx.Load() }
