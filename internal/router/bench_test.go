package router

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func BenchmarkResolveWeighted(b *testing.B) {
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("catalog", 0.2)); err != nil {
		b.Fatal(err)
	}
	req := &Request{UserID: "user-12345"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Resolve("catalog", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveParallel exercises the lock-free read path from all
// cores at once. The acceptance bar for the copy-on-write snapshot
// design: zero allocations per resolution and linear scaling, since
// readers share nothing but an atomic pointer load.
func BenchmarkResolveParallel(b *testing.B) {
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("catalog", 0.2)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		req := &Request{UserID: "user-12345"}
		for pb.Next() {
			if _, err := tbl.Resolve("catalog", req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResolveParallelWithChurn measures the read path while a
// writer continuously swaps snapshots, the gradual-rollout steady state.
func BenchmarkResolveParallelWithChurn(b *testing.B) {
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("catalog", 0.2)); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		w := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			w += 0.01
			if w >= 1 {
				w = 0.01
			}
			_ = tbl.SetWeights("catalog", []Backend{
				{Version: "v1", Weight: 1 - w}, {Version: "v2", Weight: w},
			})
		}
	}()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		req := &Request{UserID: "user-12345"}
		for pb.Next() {
			if _, err := tbl.Resolve("catalog", req); err != nil {
				b.Fatal(err)
			}
		}
	})
	close(stop)
}

func BenchmarkResolveWithRules(b *testing.B) {
	tbl := NewTable()
	route := twoArmRoute("catalog", 0.2)
	for i := 0; i < 8; i++ {
		route.Rules = append(route.Rules, Rule{
			Name:    fmt.Sprintf("rule-%d", i),
			Match:   HeaderMatcher{Key: fmt.Sprintf("X-H%d", i), Value: "1"},
			Version: "v2",
		})
	}
	if err := tbl.Set(route); err != nil {
		b.Fatal(err)
	}
	req := &Request{UserID: "user-12345", Header: http.Header{"X-H7": {"1"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Resolve("catalog", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyServeHTTP is one keep-alive client's round trip through
// the proxy to a loopback backend that answers 64 bytes: the per-request
// cost of the data plane (paper Fig. 4.6), sockets and net/http on both
// hops included. allocs/op counts client, proxy and backend together.
func BenchmarkProxyServeHTTP(b *testing.B) {
	body := bytes.Repeat([]byte("x"), 64)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "64")
		_, _ = w.Write(body)
	}))
	defer backend.Close()
	tbl := NewTable()
	if err := tbl.Set(twoArmRoute("catalog", 0.2)); err != nil {
		b.Fatal(err)
	}
	p := NewProxy("catalog", tbl)
	defer p.Close()
	for _, v := range []string{"v1", "v2"} {
		if err := p.RegisterUpstream(v, backend.URL); err != nil {
			b.Fatal(err)
		}
	}
	front := httptest.NewServer(p)
	defer front.Close()
	client := front.Client()
	req, err := http.NewRequest(http.MethodGet, front.URL+"/item", nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("X-User-ID", "user-12345")

	b.ReportAllocs()
	for b.Loop() {
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := io.Copy(io.Discard, resp.Body); n != 64 || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %d body bytes", resp.StatusCode, n)
		}
		resp.Body.Close()
	}
}
