package router

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"syscall"
	"time"
)

const (
	// maxIdle bounds the idle keep-alive connections kept to one
	// upstream address; a connection released past it is closed.
	maxIdle = 64
	// maxInterim bounds the 1xx interim replies skipped before the
	// final one.
	maxInterim = 8
)

// dialer has the timeouts net/http's default client dials with.
var dialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// connPool is one upstream address and its idle keep-alive
// connections, the most recently released on top.
type connPool struct {
	addr string      // host:port
	tls  *tls.Config // nil for an http upstream

	mu     sync.Mutex
	idle   []*upConn
	closed bool
}

// newConnPool returns the pool for u's scheme, host and port; roots
// verifies an https upstream, nil meaning the system's roots.
func newConnPool(u *url.URL, roots *x509.CertPool) (*connPool, error) {
	host, port := u.Hostname(), u.Port()
	cp := &connPool{}
	switch u.Scheme {
	case "http":
		if port == "" {
			port = "80"
		}
	case "https":
		if port == "" {
			port = "443"
		}
		cp.tls = &tls.Config{ServerName: host, RootCAs: roots, NextProtos: []string{"http/1.1"}}
	default:
		return nil, fmt.Errorf("router: upstream url %q: scheme is not http or https", u)
	}
	cp.addr = net.JoinHostPort(host, port)
	return cp, nil
}

// roundTrip sends out over HTTP/1.1 and reads the final reply, all on
// the calling goroutine. A request that fails on a reused connection is
// sent once more, on a fresh one, if it is replayable.
func (cp *connPool) roundTrip(out *http.Request) (*http.Response, error) {
	ctx := out.Context()
	if c := cp.get(); c != nil {
		res, err := c.exchange(out)
		if err == nil || !replayable(out) || ctx.Err() != nil {
			return res, err
		}
		if out.GetBody != nil {
			if out.Body, err = out.GetBody(); err != nil {
				return nil, err
			}
		}
	}
	c, err := cp.dial(ctx)
	if err != nil {
		return nil, err
	}
	return c.exchange(out)
}

// replayable is net/http's client rule for sending a request again
// after its connection failed: an idempotent method or an idempotency
// key, and no body or one that can be had again.
func replayable(r *http.Request) bool {
	if r.Body != nil && r.Body != http.NoBody && r.GetBody == nil {
		return false
	}
	switch r.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, key := r.Header["Idempotency-Key"]
	_, xkey := r.Header["X-Idempotency-Key"]
	return key || xkey
}

// get pops an idle connection the upstream has neither closed nor
// written to, closing those on top that fail the check; nil when none
// is left.
func (cp *connPool) get() *upConn {
	for {
		cp.mu.Lock()
		n := len(cp.idle)
		if n == 0 {
			cp.mu.Unlock()
			return nil
		}
		c := cp.idle[n-1]
		cp.idle[n-1] = nil
		cp.idle = cp.idle[:n-1]
		cp.mu.Unlock()
		if c.usable() {
			return c
		}
		c.conn.Close()
	}
}

// put keeps c for the next request, or closes it once the pool is
// closed or full.
func (cp *connPool) put(c *upConn) {
	cp.mu.Lock()
	if !cp.closed && len(cp.idle) < maxIdle {
		cp.idle = append(cp.idle, c)
		c = nil
	}
	cp.mu.Unlock()
	if c != nil {
		c.conn.Close()
	}
}

// close closes the idle connections; one released later is closed too.
func (cp *connPool) close() {
	cp.mu.Lock()
	idle := cp.idle
	cp.idle, cp.closed = nil, true
	cp.mu.Unlock()
	for _, c := range idle {
		c.conn.Close()
	}
}

// upConn is one connection to an upstream. It has no goroutine of its
// own: the request holding it writes and reads on it.
type upConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer // writes through Write, which keeps werr
	werr error         // the last failed write to conn
	pool *connPool
	stop func() bool // unhooks the holding request's context from the connection

	raw    syscall.RawConn       // the socket under conn, for usable; nil if there is none
	peek   func(fd uintptr) bool // made once per connection, so a check allocates nothing
	peeked bool                  // peek's answer: the socket holds no byte and no end of stream
}

func (cp *connPool) dial(ctx context.Context) (*upConn, error) {
	conn, err := dialer.DialContext(ctx, "tcp", cp.addr)
	if err != nil {
		return nil, err
	}
	c := &upConn{conn: conn, pool: cp}
	if sc, ok := conn.(syscall.Conn); ok {
		if c.raw, err = sc.SyscallConn(); err != nil {
			conn.Close()
			return nil, err
		}
		c.peek = func(fd uintptr) bool {
			var b [1]byte
			_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			c.peeked = err == syscall.EAGAIN
			return true
		}
	}
	if cp.tls != nil {
		tc := tls.Client(conn, cp.tls)
		if err := tc.HandshakeContext(ctx); err != nil {
			conn.Close()
			return nil, err
		}
		c.conn = tc
	}
	c.br = bufio.NewReader(c.conn)
	c.bw = bufio.NewWriter(c)
	return c, nil
}

func (c *upConn) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	if err != nil {
		c.werr = err
	}
	return n, err
}

// usable reports whether an idle connection can carry a request:
// nothing is buffered, and a non-blocking peek at the socket finds
// neither a byte nor the end of the stream.
func (c *upConn) usable() bool {
	if c.br.Buffered() > 0 {
		return false
	}
	if c.raw == nil {
		return true
	}
	c.peeked = false
	return c.raw.Read(c.peek) == nil && c.peeked
}

// exchange writes out on c and reads the final reply. On success the
// reply's body owns the connection; on failure it is closed. Until the
// body is done with it, the request's context closes it.
func (c *upConn) exchange(out *http.Request) (*http.Response, error) {
	c.stop = context.AfterFunc(out.Context(), func() { c.conn.Close() })
	fail := func(err error) (*http.Response, error) {
		c.stop()
		c.conn.Close()
		if cerr := out.Context().Err(); cerr != nil {
			err = cerr
		}
		return nil, err
	}
	c.werr = nil
	werr := out.Write(c.bw)
	if werr == nil {
		werr = c.bw.Flush()
	}
	if werr != nil {
		werr = fmt.Errorf("sending the request: %w", werr)
		if c.werr == nil {
			// The request could not be made (its body failed to read):
			// the upstream waits for bytes that will not come.
			return fail(werr)
		}
	}
	// Read even after a failed write: an upstream may answer before it
	// has read the whole request (a 413, say) and then hang up.
	res, err := c.readResponse(out)
	if err != nil {
		if werr != nil {
			err = werr
		} else {
			err = fmt.Errorf("reading the reply: %w", err)
		}
		return fail(err)
	}
	keep := werr == nil && !res.Close && !out.Close && !hasToken(out.Header["Connection"], "close")
	switch {
	case res.StatusCode == http.StatusSwitchingProtocols:
		res.Body = &switched{c: c}
	case res.Body == http.NoBody:
		c.release(keep)
	default:
		res.Body = &replyBody{body: res.Body, c: c, keep: keep}
	}
	return res, nil
}

// readResponse reads past interim replies to the final one; a 101 is
// final.
func (c *upConn) readResponse(out *http.Request) (*http.Response, error) {
	for i := 0; ; i++ {
		res, err := http.ReadResponse(c.br, out)
		if err != nil {
			return nil, err
		}
		if res.StatusCode < 100 || res.StatusCode > 199 || res.StatusCode == http.StatusSwitchingProtocols {
			return res, nil
		}
		if i == maxInterim {
			return nil, fmt.Errorf("more than %d interim replies", maxInterim)
		}
	}
}

// release returns c to its pool if keep holds and the request's context
// has not closed it, and closes it otherwise.
func (c *upConn) release(keep bool) {
	if c.stop() && keep {
		c.pool.put(c)
		return
	}
	c.conn.Close()
}

// replyBody is a reply's body. Read to the end, it releases the
// connection; closed before the end or failing, it closes it.
type replyBody struct {
	body io.ReadCloser
	c    *upConn // nil once released or closed
	keep bool
}

func (b *replyBody) Read(p []byte) (int, error) {
	n, err := b.body.Read(p)
	if err != nil && b.c != nil {
		b.done(err == io.EOF)
	}
	return n, err
}

// Close does not drain the body, which http.Response's Close would.
func (b *replyBody) Close() error {
	if b.c != nil {
		b.done(false)
	}
	return nil
}

func (b *replyBody) done(eof bool) {
	c := b.c
	b.c = nil
	c.release(eof && b.keep)
}

// switched is a 101 reply's body: the connection itself, read through
// whatever the reply left buffered.
type switched struct{ c *upConn }

func (s *switched) Read(p []byte) (int, error)  { return s.c.br.Read(p) }
func (s *switched) Write(p []byte) (int, error) { return s.c.conn.Write(p) }

func (s *switched) Close() error {
	s.c.stop()
	return s.c.conn.Close()
}
