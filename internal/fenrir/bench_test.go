package fenrir

import (
	"math/rand"
	"testing"
)

func BenchmarkFitness(b *testing.B) {
	for _, n := range []int{10, 40} {
		n := n
		b.Run(itoa(n), func(b *testing.B) {
			p := mediumProblem(b, n, SamplesMedium)
			rng := rand.New(rand.NewSource(1))
			s := randomSchedule(p, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Fitness(s)
			}
		})
	}
}

func BenchmarkRandomSchedule(b *testing.B) {
	p := mediumProblem(b, 20, SamplesMedium)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		randomSchedule(p, rng)
	}
}

func itoa(n int) string {
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
