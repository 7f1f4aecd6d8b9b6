package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"slices"
)

// workerService is the net/rpc name workers register under; Transport
// method names append to it.
const workerService = "Worker"

// The rpc framing. net/rpc keeps its job — sequence numbers, matching
// replies to calls, dropping the reply of an abandoned call, routing a
// request to the Worker method — and these codecs replace its byte format:
// each direction of a connection carries length-prefixed frames,
//
//	uint32 LE body length | body
//	body: uvarint seq | string method | string error | message
//
// where a string is a uvarint length and its bytes, error is empty on
// requests and on successful replies, and message is the wire.go form of
// the method's args (request) or reply (response; absent with an error).
const (
	// maxFrame caps a declared frame length (1 GiB).
	maxFrame = 1 << 30
	// frameChunk is the least a frame buffer grows by while a frame
	// larger than the buffer arrives.
	frameChunk = 64 << 10
)

// readFrame reads one frame body from r into buf (reused when large
// enough) and returns it. A declared length over maxFrame is ErrBadFrame,
// and the buffer grows only as bytes actually arrive — at most doubling —
// so a lying length prefix cannot allocate what the peer never sends. A
// clean close before the first byte is io.EOF; one inside a frame is
// io.ErrUnexpectedEOF.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(head[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds the %d cap", ErrBadFrame, n, maxFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), frameChunk)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// appendFrameHead starts a frame in dst: four bytes reserved for the
// length, then the seq, method and error fields. The caller appends the
// message and calls finishFrame.
func appendFrameHead(dst []byte, seq uint64, method, errText string) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(method)))
	dst = append(dst, method...)
	dst = binary.AppendUvarint(dst, uint64(len(errText)))
	return append(dst, errText...)
}

// finishFrame fills in the length of a frame that occupies all of b and
// whose message continues for extra more bytes outside it.
func finishFrame(b []byte, extra int) error {
	n := len(b) - 4 + extra
	if n > maxFrame {
		return fmt.Errorf("%w: encoding a frame of %d bytes exceeds the %d cap", ErrBadFrame, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(b, uint32(n))
	return nil
}

// splitFrame parses a frame body into its header fields and the message
// bytes, which alias body.
func splitFrame(body []byte) (seq uint64, method, errText string, message []byte, err error) {
	r := wireReader{b: body}
	seq = r.uvarint(^uint64(0))
	method = string(r.bytes())
	errText = string(r.bytes())
	return seq, method, errText, r.b, r.err
}

// frameConn is the state both codecs share: the connection, its buffered
// read side, and one reusable buffer per direction. net/rpc reads a
// connection from one goroutine and serialises writes under its own lock,
// so neither buffer needs one here; nothing decoded aliases them.
type frameConn struct {
	conn    io.ReadWriteCloser
	r       *bufio.Reader
	in, out []byte
	message []byte // message bytes of the frame whose header was read last
}

func newFrameConn(conn io.ReadWriteCloser) frameConn {
	return frameConn{conn: conn, r: bufio.NewReader(conn)}
}

// readHead reads the next frame and returns its header fields, keeping
// the message bytes for the body read that follows.
func (c *frameConn) readHead() (seq uint64, method, errText string, err error) {
	if c.in, err = readFrame(c.r, c.in); err != nil {
		return 0, "", "", err
	}
	seq, method, errText, c.message, err = splitFrame(c.in)
	return seq, method, errText, err
}

// Close closes the connection.
func (c *frameConn) Close() error { return c.conn.Close() }

// serverCodec is the worker side: an rpc.ServerCodec over frames.
type serverCodec struct{ frameConn }

// ReadRequestHeader implements rpc.ServerCodec.
func (c *serverCodec) ReadRequestHeader(req *rpc.Request) (err error) {
	req.Seq, req.ServiceMethod, _, err = c.readHead()
	return err
}

// ReadRequestBody implements rpc.ServerCodec. body is a pointer to the
// method's args type, or nil when net/rpc could not route the request and
// only wants the body skipped.
func (c *serverCodec) ReadRequestBody(body any) error {
	if body == nil {
		return nil
	}
	return decodeMessage(c.message, body)
}

// WriteResponse implements rpc.ServerCodec. A reply with no wire form is
// reported to the caller as the call's error rather than dropped.
func (c *serverCodec) WriteResponse(resp *rpc.Response, body any) error {
	out := appendFrameHead(c.out[:0], resp.Seq, resp.ServiceMethod, resp.Error)
	if resp.Error == "" {
		var err error
		if out, err = appendMessage(out, body); err != nil {
			out = appendFrameHead(out[:0], resp.Seq, resp.ServiceMethod, err.Error())
		}
	}
	c.out = out
	if err := finishFrame(out, 0); err != nil {
		return err
	}
	_, err := c.conn.Write(out)
	return err
}

// ServeWorker registers w as the "Worker" net/rpc service and serves
// connections from l (framed wire codec, one goroutine per connection)
// until the listener closes, whose error it returns. It is the remote
// side of RPCTransport; a worker process is just
//
//	l, _ := net.Listen("tcp", addr)
//	dist.ServeWorker(l, dist.NewWorker())
func ServeWorker(l net.Listener, w *Worker) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(workerService, w); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		//lint:ignore invcheck/goroutines per-connection rpc goroutines run until the peer disconnects; their lifetime is bounded by closing the listener, the standard net/rpc serving shape
		go srv.ServeCodec(&serverCodec{newFrameConn(conn)})
	}
}

// wireReply is what RPCTransport hands net/rpc as a call's reply: the
// message to decode into, and the decode error, which net/rpc would
// otherwise flatten into a string and the retry loop misread as a
// connection failure.
type wireReply struct {
	msg any
	err error
}

// clientCodec is the coordinator side: an rpc.ClientCodec over frames.
// Request bodies arrive already encoded ([]byte), so encoding happens on
// the calling goroutine, outside net/rpc's send lock.
type clientCodec struct{ frameConn }

// WriteRequest implements rpc.ClientCodec.
func (c *clientCodec) WriteRequest(req *rpc.Request, body any) error {
	message := body.([]byte)
	c.out = appendFrameHead(c.out[:0], req.Seq, req.ServiceMethod, "")
	if err := finishFrame(c.out, len(message)); err != nil {
		return err
	}
	bufs := net.Buffers{c.out, message}
	_, err := bufs.WriteTo(c.conn)
	return err
}

// ReadResponseHeader implements rpc.ClientCodec.
func (c *clientCodec) ReadResponseHeader(resp *rpc.Response) (err error) {
	resp.Seq, resp.ServiceMethod, resp.Error, err = c.readHead()
	return err
}

// ReadResponseBody implements rpc.ClientCodec. body is the call's
// *wireReply, or nil for an errored or abandoned call whose body net/rpc
// only wants skipped.
func (c *clientCodec) ReadResponseBody(body any) error {
	if body == nil {
		return nil
	}
	reply := body.(*wireReply)
	reply.err = decodeMessage(c.message, reply.msg)
	return nil
}

// RPCTransport reaches worker processes over net/rpc carrying the wire.go
// messages in length-prefixed frames — the real-deployment transport. One
// persistent connection per worker; calls to distinct workers run
// concurrently on their own connections.
type RPCTransport struct {
	clients []*rpc.Client // nil once closed
}

// DialRPC connects to one worker per address ("host:port", TCP). On any
// dial failure the already-open connections are closed before returning,
// so a mid-list failure leaks nothing, and the error wraps both the
// failing address's cause and ErrWorkerUnavailable.
func DialRPC(addrs []string) (*RPCTransport, error) {
	t := &RPCTransport{}
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			if cerr := t.Close(); cerr != nil {
				return nil, fmt.Errorf("%w: dial %s: %w (and closing prior connections: %w)",
					ErrWorkerUnavailable, addr, err, cerr)
			}
			return nil, fmt.Errorf("%w: dial %s: %w", ErrWorkerUnavailable, addr, err)
		}
		t.clients = append(t.clients, rpc.NewClientWithCodec(&clientCodec{newFrameConn(conn)}))
	}
	return t, nil
}

// NumWorkers implements Transport.
func (t *RPCTransport) NumWorkers() int { return len(t.clients) }

// Call implements Transport. A closed transport returns ErrClosed and a
// worker index it does not reach ErrNoSuchWorker, like the local one. A
// cancelled ctx abandons the in-flight rpc: net/rpc delivers the eventual
// reply to the call's own done channel (buffered), so nothing leaks and
// the connection stays usable — and because the rpc decodes into a fresh
// reply value (copied to the caller's only on success), a late delivery
// never corrupts a retry's reply. Connection-level failures (a shut-down
// client, a broken pipe — anything that is not the worker speaking) come
// back wrapping ErrWorkerUnavailable, the coordinator's retryable class;
// errors the worker itself returned pass through verbatim, and args or a
// reply that do not encode or decode wrap ErrBadFrame.
func (t *RPCTransport) Call(ctx context.Context, w int, method string, args, reply any) error {
	if t.clients == nil {
		return ErrClosed
	}
	if w < 0 || w >= len(t.clients) {
		return fmt.Errorf("%w: %d of %d", ErrNoSuchWorker, w, len(t.clients))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	message, err := appendMessage(nil, args)
	if err != nil {
		return err
	}
	fresh := &wireReply{msg: freshReplyLike(reply)}
	call := t.clients[w].Go(workerService+"."+method, message, fresh, make(chan *rpc.Call, 1))
	select {
	case <-call.Done:
		if call.Error != nil {
			return wrapRPCError(w, call.Error)
		}
		if fresh.err != nil {
			return fresh.err
		}
		copyReply(reply, fresh.msg)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wrapRPCError classifies a net/rpc call error: a *rpc.ServerError is the
// worker's own error string, and ErrBadFrame is the client codec refusing
// a request over the frame cap before writing any of it — both returned
// as-is (deterministic, not worth a retry, and the connection is intact);
// everything else is the connection failing underneath us and wraps
// ErrWorkerUnavailable.
func wrapRPCError(w int, err error) error {
	var serverErr rpc.ServerError
	if errors.As(err, &serverErr) || errors.Is(err, ErrBadFrame) {
		return err
	}
	return fmt.Errorf("%w: worker %d: %w", ErrWorkerUnavailable, w, err)
}

// Close implements Transport, closing every connection and returning the
// first error.
func (t *RPCTransport) Close() error {
	var first error
	for _, c := range t.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.clients = nil
	return first
}
