package disk

// Stats accumulates per-disk counters. The paper's Figure on disk-request
// counts comes straight from these: the whole point of embedded inodes
// and explicit grouping is to shrink Requests while SectorsMoved stays
// roughly constant.
type Stats struct {
	Requests      int64 // total requests serviced
	Reads         int64
	Writes        int64
	SectorsRead   int64
	SectorsWrite  int64
	CacheHits     int64 // read requests satisfied from the on-board cache
	BusyNanos     int64 // total service time
	SeekNanos     int64 // time spent seeking
	RotateNanos   int64 // time spent in rotational latency
	TransferNanos int64 // time spent moving bits off the media / bus

	// Discards counts discard commands the device acted on. A discard
	// moves no data, so it is not a request: Requests, Reads and Writes
	// stay the paper's transfer counts, and a reader who wants commands
	// per operation adds this to Requests. Its time is in BusyNanos.
	Discards int64
}

// Sub returns s minus t, for per-phase deltas.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Requests:      s.Requests - t.Requests,
		Reads:         s.Reads - t.Reads,
		Writes:        s.Writes - t.Writes,
		SectorsRead:   s.SectorsRead - t.SectorsRead,
		SectorsWrite:  s.SectorsWrite - t.SectorsWrite,
		CacheHits:     s.CacheHits - t.CacheHits,
		BusyNanos:     s.BusyNanos - t.BusyNanos,
		SeekNanos:     s.SeekNanos - t.SeekNanos,
		RotateNanos:   s.RotateNanos - t.RotateNanos,
		TransferNanos: s.TransferNanos - t.TransferNanos,
		Discards:      s.Discards - t.Discards,
	}
}

// Add returns s plus t. A striped volume reports its aggregate Stats as
// the sum over member spindles (per-spindle figures stay available
// separately).
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Requests:      s.Requests + t.Requests,
		Reads:         s.Reads + t.Reads,
		Writes:        s.Writes + t.Writes,
		SectorsRead:   s.SectorsRead + t.SectorsRead,
		SectorsWrite:  s.SectorsWrite + t.SectorsWrite,
		CacheHits:     s.CacheHits + t.CacheHits,
		BusyNanos:     s.BusyNanos + t.BusyNanos,
		SeekNanos:     s.SeekNanos + t.SeekNanos,
		RotateNanos:   s.RotateNanos + t.RotateNanos,
		TransferNanos: s.TransferNanos + t.TransferNanos,
		Discards:      s.Discards + t.Discards,
	}
}

// SectorsMoved returns total sectors transferred in either direction.
func (s Stats) SectorsMoved() int64 { return s.SectorsRead + s.SectorsWrite }

// BytesMoved returns total bytes transferred in either direction.
func (s Stats) BytesMoved() int64 { return s.SectorsMoved() * SectorSize }
