package microsim

import (
	"testing"
	"time"

	"contexp/internal/metrics"
	"contexp/internal/router"
	"contexp/internal/tracing"
)

func BenchmarkSimExecuteShop(b *testing.B) {
	app, err := ShopApplication()
	if err != nil {
		b.Fatal(err)
	}
	tbl := router.NewTable()
	if err := InstallBaselineRoutes(app, tbl); err != nil {
		b.Fatal(err)
	}
	sim := NewSim(app, tbl, tracing.NewLiveCollector(0), metrics.NewStore(0), 1)
	req := &router.Request{UserID: "user-1"}
	at := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(req, at); err != nil {
			b.Fatal(err)
		}
	}
}
