//go:build nightly

package fp16

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestExhaustiveCodec checks EncodeSlice on every one of the 2³² float32
// bit patterns against referenceFromFloat32, on each tier. It takes tens
// of seconds per tier, so it runs only under the nightly build tag
// (go test -tags nightly -run Exhaustive ./internal/fp16); the suite's
// TestEncodeSliceMatchesReference covers every rounding decision with
// 2¹⁹ structured patterns. The decode needs no nightly run:
// TestDecodeSliceMatchesToFloat32 already checks all 2¹⁶ halves on each
// tier.
func TestExhaustiveCodec(t *testing.T) {
	const chunk = 1 << 16
	forEachTier(t, func(t *testing.T) {
		var (
			wg    sync.WaitGroup
			next  = make(chan uint32)
			fails = make(chan string, 1)
		)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := make([]float32, chunk)
				dst := make([]Bits16, chunk)
				for base := range next {
					if len(fails) > 0 {
						continue // drain the sender; one mismatch is reported
					}
					for i := range src {
						src[i] = math.Float32frombits(base + uint32(i))
					}
					EncodeSlice(dst, src)
					for i, v := range src {
						if want := referenceFromFloat32(v); dst[i] != want {
							select {
							case fails <- fmt.Sprintf("EncodeSlice(%#08x) = %#04x, reference %#04x", base+uint32(i), dst[i], want):
							default:
							}
							break
						}
					}
				}
			}()
		}
		for hi := uint64(0); hi < 1<<32; hi += chunk {
			next <- uint32(hi)
		}
		close(next)
		wg.Wait()
		select {
		case msg := <-fails:
			t.Fatal(msg)
		default:
		}
	})
}
