package main

import (
	"net"
	"net/http"
	"sync"
	"time"
)

// listener is an http.Server on its own loopback port.
type listener struct {
	srv   *http.Server
	url   string
	done  chan struct{}
	conns sync.WaitGroup // connections whose serving goroutine is alive
}

// listen serves h on 127.0.0.1:0 until close.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	l.srv.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			l.conns.Add(1)
		case http.StateClosed, http.StateHijacked:
			l.conns.Done()
		}
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

// close drops the listener and every connection, then waits for Serve
// and for the connections' goroutines: they hold the handler, and with
// it the world a repeated set-up is about to replace.
func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
	l.conns.Wait()
}

// newHTTPClient returns a client with a connection pool of its own, so
// each generator goroutine keeps exactly one keep-alive connection per
// server it talks to.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

func closeHTTPClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}
