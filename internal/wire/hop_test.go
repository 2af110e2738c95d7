package wire

import (
	"context"
	"fmt"
	"testing"
	"time"

	"streampca/internal/stream"
)

// BenchmarkEdgeHop times one wire hop end to end: a dial edge's send half
// takes each frame, and an accept edge's receive half decodes it into its
// frame pool over loopback TCP and emits it to a consumer that releases it.
// ns/op is per frame, from the first Process to the peer's EOS; -benchmem
// counts both halves' allocations per frame.
func BenchmarkEdgeHop(b *testing.B) {
	for _, tc := range []struct{ dim, rows int }{{16, 1}, {400, 64}} {
		b.Run(fmt.Sprintf("d-%d/frame-%d", tc.dim, tc.rows), func(b *testing.B) {
			ln, err := ListenEdge("127.0.0.1:0", EdgeOptions{Name: "accept", Dim: tc.dim, Batch: tc.rows})
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			accept := ln.Edge()
			defer accept.Close()
			dial := DialEdge(ln.Addr().String(), EdgeOptions{
				Name: "dial", Hello: Hello{Dim: tc.dim, Batch: tc.rows, Epoch: 1}, Retry: fastRetry,
			})
			defer dial.Close()
			frame := contiguousFrame(0, tc.rows, tc.dim)
			b.SetBytes(int64(tc.rows * tc.dim * 8))

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			recv := make(chan error, 1)
			go func() {
				recv <- accept.Source(nil)(ctx, func(_ int, m stream.Message) { stream.ReleaseFrame(m) })
			}()
			op := dial.Operator()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Process(0, frame, nil)
			}
			op.Flush(nil)
			if err := <-recv; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st := accept.Stats(); st.FramesRecv != int64(b.N) {
				b.Fatalf("peer received %d frames, want %d", st.FramesRecv, b.N)
			}
		})
	}
}
