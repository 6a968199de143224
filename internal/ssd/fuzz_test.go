package ssd

import "testing"

// FuzzSSDMapping drives random write/trim sequences through the FTL and
// checks the mapping against a flat-array oracle: a logical page is
// mapped exactly when the oracle says it is live, trims counts exactly
// the trims that found their page live, every structural invariant
// holds (checkFTL), and the free pool never drops below the reserve —
// GC progress under arbitrary interleavings.
//
// The byte stream decodes as 2-byte ops: the first byte selects the
// action (trim on 0 mod 4, write otherwise, so writes dominate and the
// log actually wraps), the second the logical page. A small geometry
// (128 pages, 8-page blocks, minimal over-provisioning) makes even
// short inputs wrap the log several times.
func FuzzSSDMapping(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 0, 0, 0})                   // rewrite then trim one page
	f.Add([]byte{1, 1, 2, 2, 3, 3, 0, 1, 1, 1, 1, 1}) // mixed ops
	seq := make([]byte, 0, 512)
	for i := 0; i < 128; i++ { // two sequential device fills
		seq = append(seq, 1, byte(i), 1, byte(i))
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, err := newFTL(128, 8, 2, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		live := make([]bool, ft.nLogical) // the oracle
		var trims int64
		for i := 0; i+1 < len(data); i += 2 {
			lpn := int(data[i+1]) % ft.nLogical
			if data[i]%4 == 0 {
				if err := ft.trim(lpn); err != nil {
					t.Fatal(err)
				}
				if live[lpn] {
					trims++
				}
				live[lpn] = false
			} else {
				if _, err := ft.write(lpn); err != nil {
					t.Fatal(err)
				}
				live[lpn] = true
			}
			if ft.freeBlocks() < ft.reserve {
				t.Fatalf("free pool %d below reserve %d", ft.freeBlocks(), ft.reserve)
			}
		}
		for lpn, want := range live {
			if got := ft.l2p[lpn] >= 0; got != want {
				t.Fatalf("page %d: mapped=%v, oracle live=%v", lpn, got, want)
			}
		}
		if ft.trims != trims {
			t.Fatalf("trims=%d, oracle counted %d trims of a live page", ft.trims, trims)
		}
		checkFTL(t, ft)
		if ft.flashPages < ft.hostPages {
			t.Fatalf("flash pages %d below host pages %d", ft.flashPages, ft.hostPages)
		}
	})
}
