package dist

import (
	"context"
	"fmt"
	"sync"
)

// localCall is one request on a worker's channel.
type localCall struct {
	method string
	args   any
	reply  any
	done   chan error
}

// LocalTransport runs workers as in-process goroutines, one per worker,
// each serving calls from its own channel. With Encode set every argument
// and reply is encoded with the wire.go codec and decoded into fresh
// message values, so each message crosses as its wire bytes (whose
// serialization cost bench reports as dist.gob_share, a name it keeps
// from the codec this one replaced); without it, payloads pass by
// reference with zero copies.
type LocalTransport struct {
	// Encode turns on the encode/decode round trip per call.
	Encode bool

	workers []*Worker
	calls   []chan localCall

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
	t := &LocalTransport{Encode: encode}
	for i := 0; i < n; i++ {
		w := NewWorker()
		ch := make(chan localCall)
		t.workers = append(t.workers, w)
		t.calls = append(t.calls, ch)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for c := range ch {
				c.done <- dispatch(w, c.method, c.args, c.reply)
			}
		}()
	}
	return t
}

// NumWorkers implements Transport.
func (t *LocalTransport) NumWorkers() int { return len(t.workers) }

// Call implements Transport. In encode mode the args are wire-encoded and
// decoded into a fresh message before the worker sees them, and the reply
// makes the reverse trip, so no memory is shared across the "wire". A
// closed transport returns ErrClosed, a worker index out of range
// ErrNoSuchWorker. A cancelled ctx abandons the request: if the worker
// already took it, the buffered done channel absorbs its eventual reply,
// so neither side blocks or leaks. The worker always fills a fresh reply
// value that is copied into the caller's only on success, so an abandoned
// request that completes late never scribbles over a reply object the
// caller has handed to a retry.
func (t *LocalTransport) Call(ctx context.Context, w int, method string, args, reply any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c := localCall{method: method, args: args, reply: freshReplyLike(reply), done: make(chan error, 1)}
	if t.Encode {
		wireArgs, wireReply, err := message(method)
		if err != nil {
			return err
		}
		if err := wireRoundTrip(args, wireArgs); err != nil {
			return err
		}
		c.args, c.reply = wireArgs, wireReply
	}
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
	case t.calls[w] <- c:
	case <-ctx.Done():
		t.mu.RUnlock()
		return ctx.Err()
	}
	t.mu.RUnlock()
	select {
	case err := <-c.done:
		if err != nil {
			return err
		}
	case <-ctx.Done():
		return ctx.Err()
	}
	if t.Encode {
		return wireRoundTrip(c.reply, reply)
	}
	copyReply(reply, c.reply)
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
