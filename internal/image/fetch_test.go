package image_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/elf64"
	"repro/internal/image"
	"repro/internal/x86"
)

// TestFetchConcurrentMatchesDecode fetches every address of a Table 2
// binary's executable sections, each byte and not only instruction
// starts, from several goroutines at once, and compares every result with
// a serial x86.Decode of the same bytes: an image is shared between lift
// workers and Step-2 checkers without a lock, so a fetch may depend on
// nothing but the bytes (run it under -race).
func TestFetchConcurrentMatchesDecode(t *testing.T) {
	units, err := corpus.CoreUtilsSuite(0.17)
	if err != nil {
		t.Fatal(err)
	}
	var im *image.Image
	for _, u := range units {
		if u.Name == "tar" {
			im = u.Image
		}
	}
	if im == nil {
		t.Fatal("no tar binary in CoreUtilsSuite(0.17)")
	}

	type fetched struct {
		addr uint64
		inst x86.Inst
		err  string
	}
	var want []fetched
	for _, s := range im.File().Sections {
		if s.Flags&elf64.SHFExecinstr == 0 {
			continue
		}
		for off := range s.Data {
			addr := s.Addr + uint64(off)
			inst, err := x86.Decode(s.Data[off:], addr)
			f := fetched{addr: addr, inst: inst}
			if err != nil {
				f.err = err.Error()
			}
			want = append(want, f)
		}
	}
	decoded := 0
	for _, f := range want {
		if f.err == "" {
			decoded++
		}
	}
	if decoded < 1000 {
		t.Fatalf("only %d of %d text addresses decode; want a larger image", decoded, len(want))
	}

	const workers = 4
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at its own offset, so the workers meet
			// at different addresses.
			for i := range want {
				f := want[(i+w*len(want)/workers)%len(want)]
				inst, err := im.Fetch(f.addr)
				var got string
				if err != nil {
					got = err.Error()
				}
				if got != f.err || !reflect.DeepEqual(inst, f.inst) {
					errs[w] = fmt.Errorf("Fetch(%#x) = %v, %q; x86.Decode gives %v, %q",
						f.addr, inst, got, f.inst, f.err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}
