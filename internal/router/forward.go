package router

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"strings"
	"sync"
)

// hopHeaders are dropped from requests and replies: RFC 7230 section
// 6.1 makes Connection name the rest, RFC 2616 section 13.5.1 fixed the
// list that senders still assume.
var hopHeaders = [...]string{
	"Connection",
	"Proxy-Connection", // non-standard, sent by libcurl
	"Keep-Alive",
	"Proxy-Authenticate",
	"Proxy-Authorization",
	"Te",
	"Trailer",
	"Transfer-Encoding",
	"Upgrade",
}

// copyBufs holds the 32 KiB buffers reply bodies are copied through.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// outbound returns a shallow copy of r aimed at target: target's scheme
// and host, its path in front of r's, its query in front of r's. The
// copy shares r's header, body, context and Host.
func outbound(r *http.Request, target *url.URL) *http.Request {
	// One allocation for the request and the URL it points to.
	c := &struct {
		req http.Request
		url url.URL
	}{req: *r, url: *r.URL}
	u := &c.url
	u.Scheme, u.Host = target.Scheme, target.Host
	u.Path, u.RawPath = joinURLPath(target, r.URL)
	if target.RawQuery != "" && u.RawQuery != "" {
		u.RawQuery = target.RawQuery + "&" + u.RawQuery
	} else {
		u.RawQuery = target.RawQuery + u.RawQuery
	}
	c.req.URL = u
	c.req.RequestURI = "" // a client request carries none
	c.req.Close = false
	return &c.req
}

// joinURLPath joins b's path behind a's with exactly one slash between
// them, on the escaped forms when either URL has one.
func joinURLPath(a, b *url.URL) (path, rawpath string) {
	apath, bpath := a.Path, b.Path
	if a.RawPath != "" || b.RawPath != "" {
		apath, bpath = a.EscapedPath(), b.EscapedPath()
	}
	sep, skip := "", 0
	switch aslash, bslash := strings.HasSuffix(apath, "/"), strings.HasPrefix(bpath, "/"); {
	case aslash && bslash:
		skip = 1
	case !aslash && !bslash:
		sep = "/"
	}
	path = a.Path + sep + b.Path[skip:]
	if a.RawPath != "" || b.RawPath != "" {
		rawpath = apath + sep + bpath[skip:]
	}
	return path, rawpath
}

// hasToken reports whether token is one of the comma-separated elements
// of values, compared without case.
func hasToken(values []string, token string) bool {
	for _, v := range values {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(textproto.TrimString(elem), token) {
				return true
			}
		}
	}
	return false
}

// upgradeType is the protocol h asks to switch to, "" for none.
func upgradeType(h http.Header) string {
	if !hasToken(h["Connection"], "Upgrade") {
		return ""
	}
	return h.Get("Upgrade")
}

func removeHopByHop(h http.Header) {
	for _, v := range h["Connection"] {
		for v != "" {
			var name string
			name, v, _ = strings.Cut(v, ",")
			if name = textproto.TrimString(name); name != "" {
				h.Del(name)
			}
		}
	}
	for _, name := range hopHeaders {
		delete(h, name)
	}
}

func isPrintableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// isEventStream reports whether a Content-Type is Server-Sent Events.
func isEventStream(contentType string) bool {
	mediaType, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(textproto.TrimString(mediaType), "text/event-stream")
}

// badGateway answers a request the upstream could not: a bare 502.
func (p *Proxy) badGateway(w http.ResponseWriter, err error) {
	log.Printf("router: proxy for %s: %v", p.service, err)
	w.WriteHeader(http.StatusBadGateway)
}

// forward sends r to target and relays the reply; Proxy's godoc is the
// contract. It rewrites r.Header in place.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, target upstream) {
	out := outbound(r, target.base)
	if r.ContentLength == 0 {
		out.Body = nil // a request that may be sent again on a fresh connection
	}

	h := r.Header
	upType := upgradeType(h)
	if !isPrintableASCII(upType) {
		p.badGateway(w, fmt.Errorf("client asked to switch to invalid protocol %q", upType))
		return
	}
	wantsTrailers := hasToken(h["Te"], "trailers")
	removeHopByHop(h)
	if wantsTrailers {
		h.Set("Te", "trailers")
	}
	if upType != "" {
		h.Set("Connection", "Upgrade")
		h.Set("Upgrade", upType)
	}
	if clientIP, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		// Earlier hops stay, folded into one comma-separated value. A
		// header present but nil means: leave it out.
		prior, ok := h["X-Forwarded-For"]
		if len(prior) > 0 {
			clientIP = strings.Join(prior, ", ") + ", " + clientIP
		}
		if !ok || prior != nil {
			h.Set("X-Forwarded-For", clientIP)
		}
	}
	if _, ok := h["User-Agent"]; !ok {
		h.Set("User-Agent", "") // empty suppresses Request.Write's default
	}

	res, err := target.pool.roundTrip(out)
	if err != nil {
		p.badGateway(w, err)
		return
	}
	if res.StatusCode == http.StatusSwitchingProtocols {
		p.switchProtocols(w, res, upType)
		return
	}

	removeHopByHop(res.Header)
	dst := w.Header()
	addHeaders(dst, res.Header, "")
	// ReadResponse keeps the Trailer header out of res.Header; announce
	// from res.Trailer, whose keys are known before the body.
	announced := len(res.Trailer)
	if announced > 0 {
		keys := make([]string, 0, announced)
		for k := range res.Trailer {
			keys = append(keys, k)
		}
		dst.Add("Trailer", strings.Join(keys, ", "))
	}
	w.WriteHeader(res.StatusCode)

	var flush func() error
	if res.ContentLength == -1 || isEventStream(res.Header.Get("Content-Type")) {
		flush = http.NewResponseController(w).Flush
		_ = flush() // the client sees the headers before the first byte of body
	}
	if err := copyBody(w, res.Body, flush); err != nil {
		res.Body.Close()
		log.Printf("router: proxy for %s: relaying the reply body: %v", p.service, err)
		// Part of the reply is out; the only honest signal left is to
		// drop the client connection, which the server does on this
		// panic. A caller without a server gets a short reply instead.
		if r.Context().Value(http.ServerContextKey) != nil {
			panic(http.ErrAbortHandler)
		}
		return
	}
	res.Body.Close() // fills in res.Trailer

	if len(res.Trailer) == 0 {
		return
	}
	// A trailer forces chunking; without the flush the server would give
	// a short reply a Content-Length.
	_ = http.NewResponseController(w).Flush()
	prefix := ""
	if len(res.Trailer) != announced {
		prefix = http.TrailerPrefix // carries trailers the headers did not announce
	}
	addHeaders(dst, res.Trailer, prefix)
}

// addHeaders adds src's values to dst under prefix+key. Where dst has
// none for a key it takes src's slice instead of copying it.
func addHeaders(dst, src http.Header, prefix string) {
	for k, vv := range src {
		k = prefix + k
		if have := dst[k]; len(have) > 0 {
			vv = append(have, vv...)
		}
		dst[k] = vv
	}
}

// copyBody writes body to w through a pooled buffer, calling flush (if
// not nil) after every write.
func copyBody(w io.Writer, body io.Reader, flush func() error) error {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	for {
		n, rerr := body.Read(buf[:])
		if n > 0 {
			if nw, err := w.Write(buf[:n]); err != nil {
				return err
			} else if nw != n {
				return io.ErrShortWrite
			}
			if flush != nil {
				_ = flush() // a failed flush shows up as the next failed write
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// switchProtocols completes an Upgrade the upstream accepted: it takes
// over the client connection, relays the 101 and copies bytes both ways
// until either side stops.
func (p *Proxy) switchProtocols(w http.ResponseWriter, res *http.Response, asked string) {
	defer res.Body.Close()
	got := upgradeType(res.Header)
	if !isPrintableASCII(got) || !strings.EqualFold(got, asked) {
		p.badGateway(w, fmt.Errorf("upstream switched to protocol %q, the client asked for %q", got, asked))
		return
	}
	upstream, ok := res.Body.(io.ReadWriteCloser)
	if !ok {
		p.badGateway(w, fmt.Errorf("101 reply with a body that cannot be written to"))
		return
	}
	client, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		p.badGateway(w, fmt.Errorf("taking over the client connection: %w", err))
		return
	}
	defer client.Close()

	addHeaders(w.Header(), res.Header, "")
	res.Header, res.Body = w.Header(), nil // Write sends the status line and headers only
	if err := res.Write(brw); err == nil {
		err = brw.Flush()
	}
	if err != nil {
		log.Printf("router: proxy for %s: relaying the 101: %v", p.service, err)
		return
	}
	done := make(chan struct{}, 2)
	go func() { _, _ = io.Copy(upstream, brw); done <- struct{}{} }()
	go func() { _, _ = io.Copy(client, upstream); done <- struct{}{} }()
	<-done
}
