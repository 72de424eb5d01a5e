package wire

import (
	"errors"
	"testing"
)

// FuzzWireDecode hammers every decoder with arbitrary bytes. The
// contract it pins: decoders never panic, never allocate past the
// structural caps, and every failure is (or wraps) one of the typed
// errors — ErrTruncated, ErrMalformed, ErrFrameTooBig.
func FuzzWireDecode(f *testing.F) {
	var e Encoder
	seed := [][]byte{
		{},
		{0x01},
		{0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	if b, err := e.BoardSyncFrame(nil, &BoardSync{Job: "job000001", Valid: true, Cost: 7, Gen: 2, Cfg: []int{2, 0, 1}}); err == nil {
		seed = append(seed, b)
	}
	if b, err := e.ProgressFrame(nil, &Progress{Job: "j1", State: "solved", Walker: -1, Terminal: true, Result: &ProgressResult{Solved: true, Solution: []int{0, 1}}}); err == nil {
		seed = append(seed, b)
	}
	if b, err := e.SubscribeFrame(nil, &Subscribe{Job: "job000001"}); err == nil {
		seed = append(seed, b)
	}
	if b, err := e.HelloFrame(nil, &Hello{Role: "fuzz"}); err == nil {
		seed = append(seed, b)
	}
	for _, s := range seed {
		f.Add(s)
	}

	typed := func(t *testing.T, what string, err error) {
		if err == nil {
			return
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrFrameTooBig) {
			t.Errorf("%s: untyped error %v", what, err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the input as a frame sequence, decoding each payload by
		// its declared type — the exact loop a stream reader runs.
		rest := data
		for len(rest) > 0 {
			typ, payload, next, err := DecodeFrame(rest)
			typed(t, "DecodeFrame", err)
			if err != nil {
				break
			}
			switch typ {
			case TypeHello:
				_, err = DecodeHello(payload)
			case TypeBoardSync:
				_, err = DecodeBoardSync(payload)
			case TypeSubscribe:
				_, err = DecodeSubscribe(payload)
			case TypeProgress:
				_, err = DecodeProgress(payload)
			}
			typed(t, "payload decode", err)
			rest = next
		}

		// Raw payloads against every decoder, independent of framing.
		_, err := DecodeBoardSync(data)
		typed(t, "DecodeBoardSync", err)
		_, err = DecodeProgress(data)
		typed(t, "DecodeProgress", err)
		_, err = DecodeHello(data)
		typed(t, "DecodeHello", err)
		_, err = DecodeSubscribe(data)
		typed(t, "DecodeSubscribe", err)
	})
}
