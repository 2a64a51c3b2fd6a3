package layout

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestFileStoreCloseWaitsForReaders checks the per-segment lock: a reader
// that pinned the segment finishes its read before Close closes the fd
// underneath it.
func TestFileStoreCloseWaitsForReaders(t *testing.T) {
	st, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 4096)
	if err := st.Put("d", 0, data); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := st.Get("d", 0)
			if err == nil && !bytes.Equal(got, data) {
				errs <- fmt.Errorf("corrupt read")
			}
			// An error is acceptable here only as "not in store" after Close
			// reset the map — never a torn read.
		}()
	}
	st.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
