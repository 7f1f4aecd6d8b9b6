package dist

import (
	"context"
	"fmt"
	"sync"
)

// LocalTransport runs workers as in-process goroutines, one per worker,
// each serving calls from its own channel, one at a time. In encode mode
// (NewLocalTransport's encode parameter, fixed for the transport's life)
// every argument and reply is encoded with the wire.go codec and decoded
// into fresh message values, so each message crosses as its wire bytes
// (whose serialization cost bench reports as dist.gob_share, a name it
// keeps from the codec this one replaced); otherwise payloads pass by
// reference with zero copies and the worker fills the caller's reply
// directly. Either way the request carries the caller's ctx to the
// worker, whose scans stop when it is done.
type LocalTransport struct {
	encode bool
	calls  []chan func(*Worker)

	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewLocalTransport starts n in-process workers (n < 1 is treated as 1).
// encode selects the encode/decode round-trip mode.
func NewLocalTransport(n int, encode bool) *LocalTransport {
	if n < 1 {
		n = 1
	}
	t := &LocalTransport{encode: encode}
	for i := 0; i < n; i++ {
		w := NewWorker()
		ch := make(chan func(*Worker))
		t.calls = append(t.calls, ch)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for serve := range ch {
				serve(w)
			}
		}()
	}
	return t
}

// NumWorkers implements Transport.
func (t *LocalTransport) NumWorkers() int { return len(t.calls) }

// Call implements Transport. In encode mode the args are wire-encoded and
// decoded into a fresh message before the worker sees them, and the reply
// makes the reverse trip, so no memory is shared across the "wire". A
// closed transport returns ErrClosed, a worker index out of range
// ErrNoSuchWorker. A cancelled ctx abandons the request: the worker sees
// the same ctx and stops at its next poll, and the buffered done channel
// absorbs its reply, so neither side blocks or leaks. In zero-copy mode
// that late reply may still write to the caller's reply, which the
// Transport contract lets a failed call do.
func (t *LocalTransport) Call(ctx context.Context, w int, method string, args, reply any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workerArgs, workerReply := args, reply
	if t.encode {
		var err error
		if workerArgs, workerReply, err = message(method); err != nil {
			return err
		}
		if err := wireRoundTrip(args, workerArgs); err != nil {
			return err
		}
	}
	done := make(chan error, 1)
	serve := func(wk *Worker) { done <- dispatch(ctx, wk, method, workerArgs, workerReply) }
	// The read lock held across the send keeps Close from closing the
	// channel mid-send while still letting fan-out calls to distinct
	// workers proceed concurrently.
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return ErrClosed
	}
	if w < 0 || w >= len(t.calls) {
		t.mu.RUnlock()
		return fmt.Errorf("%w: %d of %d", ErrNoSuchWorker, w, len(t.calls))
	}
	select {
	case t.calls[w] <- serve:
	case <-ctx.Done():
		t.mu.RUnlock()
		return ctx.Err()
	}
	t.mu.RUnlock()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
	case <-ctx.Done():
		return ctx.Err()
	}
	if t.encode {
		return wireRoundTrip(workerReply, reply)
	}
	return nil
}

// Close implements Transport: it stops the worker goroutines and waits for
// in-flight calls to drain.
func (t *LocalTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, ch := range t.calls {
		close(ch)
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// wireRoundTrip encodes src and decodes the bytes into dst — the
// serialization leg of the encode mode.
func wireRoundTrip(src, dst any) error {
	b, err := appendMessage(nil, src)
	if err != nil {
		return err
	}
	return decodeMessage(b, dst)
}
