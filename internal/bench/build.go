package bench

import (
	"fmt"

	"cffs/internal/aging"
	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/ffs"
	"cffs/internal/lfs"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/store"
	"cffs/internal/vfs"
	"cffs/internal/volume"
	"cffs/internal/workload"
	wb "cffs/internal/writeback"
)

// Config controls experiment scale and substrate. The zero value plus
// fill() gives the paper-scale defaults; Quick shrinks everything for
// tests and -short runs while preserving the comparative shapes.
type Config struct {
	Backend     string // store provider, default "disk" (see internal/store)
	Drive       string // disk model, default the paper's ST31200
	Scheduler   string // "clook" (default) or "fcfs"
	CacheBlocks int    // buffer cache size, default 2048 (8 MB)
	Channels    int    // ssd channel-count override; 0 keeps the backend default

	// Aged runs every variant build through internal/aging before the
	// measured workload: deterministic create/delete churn fragments the
	// free space (the file-system half of an aged image) and, on the ssd
	// backend, the FTL opens pre-dirtied so garbage collection runs at
	// steady state from the first write (the device half). Fresh-vs-aged
	// is the second axis of the experiment matrix; every experiment
	// honors it because it acts at the variant-build seam.
	Aged bool

	NumFiles int // small-file benchmark file count, default 10000
	FileSize int // small-file size in bytes, default 1024
	Dirs     int // directories for the small-file benchmark, default 100

	Seed  uint64
	Quick bool // shrink workloads ~10x for fast runs

	// Registry, when non-nil, is wired into every file system a variant
	// builder mounts, so its counters cover the whole run. Experiments
	// that compare variants give each its own registry instead; see
	// Metrics on Config.
	Registry *obs.Registry `json:"-"`

	// Metrics, when non-nil, asks metrics-aware experiments to append
	// one record per (variant, registry snapshot) as they run. The
	// tables they return are unchanged.
	Metrics *MetricsLog `json:"-"`
}

func (c Config) fill() Config {
	if c.Drive == "" {
		c.Drive = "Seagate ST31200"
	}
	if c.Scheduler == "" {
		c.Scheduler = "clook"
	}
	if c.CacheBlocks == 0 {
		c.CacheBlocks = 2048
	}
	if c.NumFiles == 0 {
		c.NumFiles = 10000
	}
	if c.FileSize == 0 {
		c.FileSize = 1024
	}
	if c.Dirs == 0 {
		c.Dirs = 100
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Quick {
		c.NumFiles = min(c.NumFiles, 1500)
		c.Dirs = min(c.Dirs, 15)
	}
	return c
}

// newDevice builds a fresh simulated store + driver through the
// provider registry, so any registered backend (seek-bound disk,
// latency-bound object store, ...) can sit under every experiment.
func (c Config) newDevice() (*blockio.Device, error) {
	bk, err := store.Open(store.Config{
		Backend:   c.Backend,
		Drive:     c.Drive,
		Scheduler: c.Scheduler,
		Channels:  c.Channels,
		SSDAged:   c.Aged,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	dev := bk.Device()
	// Backends with device-level instruments (the ssd's FTL counters)
	// record into the same registry as the file system above them.
	if c.Registry != nil {
		if m, ok := dev.Disk().(interface{ SetMetrics(*obs.Registry) }); ok {
			m.SetMetrics(c.Registry)
		}
	}
	return dev, nil
}

// agingConfig is the deterministic churn an Aged build runs before its
// measured workload. The scale is fixed (not Quick-dependent) so "aged"
// names the same file-system state no matter how the measurement after
// it is scaled.
func (c Config) agingConfig() aging.Config {
	return aging.Config{
		Ops: 6000, TargetUtil: 0.15, Dirs: 24, MeanSize: 32768, Seed: c.Seed,
	}
}

// ageIfConfigured applies the Aged dimension to a freshly built file
// system: churn to steady state, then reset the device statistics so
// the measured phases start from zero — the fragmentation stays, the
// aging traffic does not pollute the measurement.
func (c Config) ageIfConfigured(fs vfs.FileSystem, dev *blockio.Device) error {
	if !c.Aged {
		return nil
	}
	if _, err := aging.Age(fs, c.agingConfig()); err != nil {
		return fmt.Errorf("bench: aging: %w", err)
	}
	dev.Disk().ResetStats()
	return nil
}

// newStripedDevice builds an n-spindle striped volume over fresh
// in-memory member disks of the configured drive, wraps it in the
// driver, and attaches the per-spindle instruments to r (which may be
// nil). The returned Volume handle exposes per-disk stats and the
// split-request counter for the experiment's balance tables.
func (c Config) newStripedDevice(n int, r *obs.Registry) (*blockio.Device, *volume.Volume, error) {
	spec, err := disk.SpecByName(c.Drive)
	if err != nil {
		return nil, nil, err
	}
	s, ok := sched.ByName(c.Scheduler)
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown scheduler %q", c.Scheduler)
	}
	vol, err := volume.NewMem(spec, n, sim.NewClock(), volume.Config{})
	if err != nil {
		return nil, nil, err
	}
	vol.SetMetrics(r)
	return blockio.NewDevice(vol, s), vol, nil
}

// fsVariant names one file system configuration under comparison.
type fsVariant struct {
	Name  string
	Build func(c Config, mode core.Mode) (vfs.FileSystem, *blockio.Device, error)
}

// variant is the one build seam: a fresh device, the file system mkfs
// makes on it, and the Aged dimension applied before anything is
// measured.
func variant(name string, mkfs func(c Config, mode core.Mode, dev *blockio.Device) (vfs.FileSystem, error)) fsVariant {
	return fsVariant{Name: name, Build: func(c Config, mode core.Mode) (vfs.FileSystem, *blockio.Device, error) {
		dev, err := c.newDevice()
		if err != nil {
			return nil, nil, err
		}
		fs, err := mkfs(c, mode, dev)
		if err != nil {
			return nil, nil, err
		}
		if err := c.ageIfConfigured(fs, dev); err != nil {
			return nil, nil, err
		}
		return fs, dev, nil
	}}
}

// cffsVariant builds a C-FFS-family file system with the given knobs;
// mode, cache size and registry come from the run.
func cffsVariant(name string, opts core.Options) fsVariant {
	return variant(name, func(c Config, mode core.Mode, dev *blockio.Device) (vfs.FileSystem, error) {
		opts := opts
		opts.Mode, opts.CacheBlocks, opts.Metrics = mode, c.CacheBlocks, c.Registry
		return core.Mkfs(dev, opts)
	})
}

// coreVariant is one cell of the paper's embedding x grouping grid.
func coreVariant(name string, embed, grouping bool) fsVariant {
	return cffsVariant(name, core.Options{EmbedInodes: embed, Grouping: grouping})
}

// ffsVariant is the independent classic-FFS baseline, lfsVariant the
// log-structured one, both without write-behind.
func ffsVariant() fsVariant { return ffsWB("FFS", wb.Config{}) }
func lfsVariant() fsVariant { return lfsWB("LFS", wb.Config{}) }

// ffsWB builds a classic FFS mounted with the given write-behind policy.
func ffsWB(name string, wbc wb.Config) fsVariant {
	return variant(name, func(c Config, mode core.Mode, dev *blockio.Device) (vfs.FileSystem, error) {
		m := ffs.ModeSync
		if mode == core.ModeDelayed {
			m = ffs.ModeDelayed
		}
		return ffs.Mkfs(dev, ffs.Options{Mode: m, CacheBlocks: c.CacheBlocks, Metrics: c.Registry, Writeback: wbc})
	})
}

// lfsWB builds the log-structured file system (it has one metadata
// mode; the run's is ignored).
func lfsWB(name string, wbc wb.Config) fsVariant {
	return variant(name, func(c Config, _ core.Mode, dev *blockio.Device) (vfs.FileSystem, error) {
		return lfs.Mkfs(dev, lfs.Options{CacheBlocks: c.CacheBlocks, Metrics: c.Registry, Writeback: wbc})
	})
}

// smallFile builds v and runs the four-phase small-file benchmark on it
// under the run's seed and registry.
func (v fsVariant) smallFile(c Config, mode core.Mode, files, size, dirs int) ([]workload.PhaseResult, error) {
	fs, _, err := v.Build(c, mode)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.Name, err)
	}
	res, err := workload.RunSmallFile(fs, workload.SmallFileConfig{
		NumFiles: files, FileSize: size, Dirs: dirs, Seed: c.Seed, Registry: c.Registry,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.Name, err)
	}
	return res, nil
}

// grid is the paper's four-way comparison plus the independent FFS.
func grid() []fsVariant {
	return []fsVariant{
		coreVariant("conventional", false, false),
		coreVariant("embedded", true, false),
		coreVariant("grouping", false, true),
		coreVariant("C-FFS", true, true),
		ffsVariant(),
	}
}

// pair is just the endpoints: conventional vs C-FFS.
func pair() []fsVariant {
	return []fsVariant{
		coreVariant("conventional", false, false),
		coreVariant("C-FFS", true, true),
	}
}
