package query

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"uncertaingraph/internal/ugbin"
)

// TestBatchKeepsMappedGraphAlive pins the memory lifetime of a mapped
// release under the world loop. ugbin unmaps a .ugb file from a GC
// finalizer on the loaded graph, while the samplers read the mapping
// on every world: the template aliases its incident offsets and
// SampleSeed reads its pair probabilities. Here only the Batch
// references the mapped graph and a collection runs after every world,
// so a path that let the graph become unreachable mid-run would unmap
// memory still being read (a SIGSEGV, or answers that differ from the
// heap-loaded graph's).
func TestBatchKeepsMappedGraphAlive(t *testing.T) {
	heap := dblpUncertain(t)
	path := filepath.Join(t.TempDir(), "dblp.ugb")
	if err := ugbin.WriteFile(path, heap); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want := dblpAnswers(t, NewBatch(heap, Config{Worlds: 40, Seed: 17, Workers: workers}))
			b := mappedBatch(t, path, Config{Worlds: 40, Seed: 17, Workers: workers,
				Progress: func(int, int) { runtime.GC() }})
			if got := dblpAnswers(t, b); !reflect.DeepEqual(got, want) {
				t.Errorf("answers on the mapped graph differ from the heap-loaded graph's:\n%+v\nvs\n%+v", got, want)
			}
		})
	}
}

// mappedBatch loads path memory-mapped and returns a batch over it;
// the batch holds the only reference to the graph. It skips the test
// where the file cannot be mapped.
func mappedBatch(t *testing.T, path string, cfg Config) *Batch {
	t.Helper()
	g, err := ugbin.LoadMode(path, ugbin.ModeMmap)
	if err != nil {
		t.Skipf("no mmap: %v", err)
	}
	return NewBatch(g, cfg)
}
