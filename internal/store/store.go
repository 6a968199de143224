// Package store is the pluggable backend seam: a registry of named
// providers, each able to open (or create) a storage image and declare
// what the resulting device can do. Everything above the blockio driver
// — tools, benchmarks, conformance tests — selects a backend by name
// and reads its capabilities from a Features struct instead of
// hard-coding a device stack, so a new device model plugs in once and
// every consumer gets it for free.
//
// Five providers ship in this package. "disk" is the paper's mechanical
// disk; "fault" is the same disk over the fault-injecting store;
// "striped" is the multi-spindle volume (its members are disk.Window
// views over one image, which is how the window store is exercised);
// "objstore" is the object-store model with fixed per-request latency
// and no seek curve; "ssd" is the flash model — microsecond fixed
// costs, channel parallelism, no seek curve, and an erase-block FTL
// whose garbage collection is charged on the simulated clock.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/fault"
	"cffs/internal/ffs"
	"cffs/internal/lfs"
	"cffs/internal/objstore"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/ssd"
	"cffs/internal/volume"
)

// Features declares what a backend's device can do. Conformance cases
// and callers gate on these instead of type-asserting device internals,
// so the declaration is part of a provider's contract — store tests
// verify each declaration against the opened device's actual behaviour.
type Features struct {
	// Ordered: barrier writes (blockio.WriteBlockOrdered) reach the
	// backing store as ordering edges a fault injector must respect.
	Ordered bool

	// AtomicSectors: a crashed write tears at sector granularity, never
	// mid-sector (the disk guarantee the integrity argument builds on).
	AtomicSectors bool

	// AtomicRequests: a whole request is all-or-nothing, like an object
	// PUT. Implies AtomicSectors.
	AtomicRequests bool

	// Batch: the target schedules whole request batches itself
	// (implements blockio.BatchSubmitter).
	Batch bool

	// Parallelism is how many requests the device services concurrently.
	Parallelism int

	// Seek: positioning cost depends on address distance, so placement
	// locality matters. False on the object store and the ssd — that is
	// their point — and exactly there the device declares a flat request
	// price instead (blockio.Target.FlatCost, non-zero iff !Seek), which
	// is what C-FFS weighs a group read against.
	Seek bool

	// FileImage: the provider can persist to an image file (Config.Path).
	FileImage bool

	// Faulty: a fault injector is armed beneath the device.
	Faulty bool

	// Stats: per-request accounting (disk.Stats) is maintained.
	Stats bool

	// Discard: the device acts on blockio.Target.Discard — it drops the
	// range from its mapping, counts the command in disk.Stats.Discards
	// and returns junk for the range afterwards. False means the call is
	// accepted and ignored. The file systems never ask: they discard
	// every block they free, on every device.
	Discard bool
}

// Config selects and parameterizes a backend.
type Config struct {
	Backend string // provider name; default "disk"
	Drive   string // disk model sizing the image; default the paper's ST31200
	Disks   int    // spindle count; >1 selects the striped volume layout
	Path    string // image file; empty means in-memory

	// Faults arms the fault injector beneath the backend's device, at
	// the byte-store level, so injected faults hit whichever spindle or
	// channel owns the sector and barriers stay global.
	Faults    bool
	FaultSeed int64

	// Channels overrides the ssd backend's channel count; 0 keeps the
	// provider default. Other backends ignore it.
	Channels int

	// SSDAged opens the ssd backend with a pre-dirtied FTL: every
	// logical page programmed once, so garbage collection runs at
	// steady state from the first write instead of staying silent until
	// the log first wraps. This is the device half of an aged image;
	// internal/aging provides the file-system half.
	SSDAged bool

	Scheduler string // request scheduler; default "clook"
}

func (c Config) fill() Config {
	if c.Backend == "" {
		c.Backend = "disk"
	}
	if c.Drive == "" {
		c.Drive = "Seagate ST31200"
	}
	if c.Disks == 0 {
		c.Disks = 1
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = 1
	}
	if c.Scheduler == "" {
		c.Scheduler = "clook"
	}
	// -disks 2 without an explicit backend has always meant the striped
	// volume; keep that meaning at the seam.
	if c.Backend == "disk" && c.Disks > 1 {
		c.Backend = "striped"
	}
	return c
}

// Backend is an opened storage stack: the blockio target plus handles
// into the layers beneath it that tools need (the raw byte store for
// closing and sniffing, the fault injector for arming faults, the
// volume for per-spindle stats).
type Backend struct {
	Name     string
	Features Features
	Target   blockio.Target
	Bytes    disk.Store     // root byte store backing the image
	Fault    *fault.Store   // non-nil when Config.Faults armed it
	Volume   *volume.Volume // non-nil on the striped backend
	SSD      *ssd.Store     // non-nil on the ssd backend (FTL stats, metrics)

	sch sched.Scheduler
}

// Device wraps the backend's target in the block driver with the
// configured scheduler.
func (b *Backend) Device() *blockio.Device {
	return blockio.NewDevice(b.Target, b.sch)
}

// Provider is one registered backend: capability declaration plus the
// image-opening recipe.
type Provider struct {
	Name  string
	Brief string

	// Wraps names the inner provider this one layers over, empty for a
	// base provider. Wrapper providers must preserve the inner device's
	// semantics they do not explicitly change; the conformance suite
	// checks declared Features against this chain.
	Wraps string

	// FeaturesFor declares capabilities for a configuration without
	// opening anything.
	FeaturesFor func(Config) Features

	// Open builds the storage stack.
	Open func(Config) (*Backend, error)
}

// ErrUnknownBackend is wrapped by lookups of unregistered provider
// names, so tools can branch on it with errors.Is.
var ErrUnknownBackend = errors.New("unknown store backend")

var providers = map[string]Provider{}

// Register adds a provider; it panics on a duplicate or empty name.
// Call it from init (the built-ins do).
func Register(p Provider) {
	if p.Name == "" {
		panic("store: Register with empty provider name")
	}
	if _, dup := providers[p.Name]; dup {
		panic("store: duplicate provider " + p.Name)
	}
	providers[p.Name] = p
}

// ByName looks up a registered provider.
func ByName(name string) (Provider, error) {
	if p, ok := providers[name]; ok {
		return p, nil
	}
	return Provider{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, Names())
}

// Names lists registered providers, sorted.
func Names() []string {
	names := make([]string, 0, len(providers))
	for n := range providers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Providers lists registered providers, sorted by name.
func Providers() []Provider {
	ps := make([]Provider, 0, len(providers))
	for _, n := range Names() {
		ps = append(ps, providers[n])
	}
	return ps
}

// Open opens cfg's backend.
func Open(cfg Config) (*Backend, error) {
	cfg = cfg.fill()
	p, err := ByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	return p.Open(cfg)
}

// FeaturesFor declares cfg's capabilities without opening anything.
func FeaturesFor(cfg Config) (Features, error) {
	cfg = cfg.fill()
	p, err := ByName(cfg.Backend)
	if err != nil {
		return Features{}, err
	}
	return p.FeaturesFor(cfg), nil
}

// image is the opened bottom of a stack, what a provider builds its
// device over: the drive model that sized it, its byte length, and the
// byte store (the fault injector when armed, else the image itself).
type image struct {
	drive  disk.Spec
	size   int64
	bottom disk.Store
}

// openImage is the preamble every provider shares: resolve the drive
// model and the scheduler, then open the image (file or memory, disks
// drives long, so one image file moves between backends) and arm the
// optional fault injector over it. The returned Backend lacks only its
// device, which the provider builds over the image and sets as Target.
func openImage(cfg Config, feats Features, disks int) (*Backend, image, error) {
	drive, err := disk.SpecByName(cfg.Drive)
	if err != nil {
		return nil, image{}, err
	}
	sch, ok := sched.ByName(cfg.Scheduler)
	if !ok {
		return nil, image{}, fmt.Errorf("store: unknown scheduler %q", cfg.Scheduler)
	}
	img := image{drive: drive, size: int64(disks) * drive.Geom.Bytes()}
	b := &Backend{Name: cfg.Backend, Features: feats, sch: sch}
	if cfg.Path != "" {
		if b.Bytes, err = disk.OpenFileStore(cfg.Path, img.size); err != nil {
			return nil, image{}, err
		}
	} else {
		b.Bytes = disk.NewMemStore(img.size)
	}
	img.bottom = b.Bytes
	if cfg.Faults {
		b.Fault = fault.NewStore(b.Bytes, cfg.FaultSeed)
		img.bottom = b.Fault
	}
	return b, img, nil
}

func diskFeatures(cfg Config) Features {
	return Features{
		Ordered:       true,
		AtomicSectors: true,
		Parallelism:   1,
		Seek:          true,
		FileImage:     true,
		Faulty:        cfg.Faults,
		Stats:         true,
	}
}

func openDisk(cfg Config) (*Backend, error) {
	b, img, err := openImage(cfg, diskFeatures(cfg), 1)
	if err != nil {
		return nil, err
	}
	d, err := disk.New(img.drive, sim.NewClock(), img.bottom)
	if err != nil {
		return nil, err
	}
	b.Target = d
	return b, nil
}

func stripedFeatures(cfg Config) Features {
	f := diskFeatures(cfg)
	f.Batch = true
	f.Parallelism = cfg.Disks
	return f
}

func openStriped(cfg Config) (*Backend, error) {
	b, img, err := openImage(cfg, stripedFeatures(cfg), cfg.Disks)
	if err != nil {
		return nil, err
	}
	// Build lays the members out as disk.Window views over the one
	// backing store, so a striped image is a single file and barriers
	// stay global across spindles.
	vol, err := volume.Build(img.drive, cfg.Disks, sim.NewClock(), img.bottom, volume.Config{})
	if err != nil {
		return nil, err
	}
	b.Target, b.Volume = vol, vol
	return b, nil
}

// flatFeatures is what both seek-free backends get from internal/flatdev.
func flatFeatures(cfg Config, parallelism int) Features {
	return Features{
		Ordered:       true,
		AtomicSectors: true,
		Batch:         true,
		Parallelism:   parallelism,
		Seek:          false,
		FileImage:     true,
		Faulty:        cfg.Faults,
		Stats:         true,
	}
}

func objstoreFeatures(cfg Config) Features {
	f := flatFeatures(cfg, objstore.DefaultSpec().Parallelism())
	f.AtomicRequests = true
	return f
}

func openObjstore(cfg Config) (*Backend, error) {
	b, img, err := openImage(cfg, objstoreFeatures(cfg), cfg.Disks)
	if err != nil {
		return nil, err
	}
	o, err := objstore.New(objstore.DefaultSpec(), sim.NewClock(), img.bottom, img.size)
	if err != nil {
		return nil, err
	}
	b.Target = o
	return b, nil
}

// ssdSpec resolves cfg into the flash device's spec.
func ssdSpec(cfg Config) ssd.Spec {
	spec := ssd.DefaultSpec()
	if cfg.Channels > 0 {
		spec.Channels = cfg.Channels
	}
	spec.PreDirty = cfg.SSDAged
	return spec
}

func ssdFeatures(cfg Config) Features {
	f := flatFeatures(cfg, ssdSpec(cfg).Parallelism())
	f.Discard = true
	return f
}

func openSSD(cfg Config) (*Backend, error) {
	b, img, err := openImage(cfg, ssdFeatures(cfg), cfg.Disks)
	if err != nil {
		return nil, err
	}
	s, err := ssd.New(ssdSpec(cfg), sim.NewClock(), img.bottom, img.size)
	if err != nil {
		return nil, err
	}
	b.Target, b.SSD = s, s
	return b, nil
}

func init() {
	Register(Provider{
		Name:        "disk",
		Brief:       "single mechanical spindle (the paper's device model)",
		FeaturesFor: diskFeatures,
		Open:        openDisk,
	})
	Register(Provider{
		Name:  "fault",
		Brief: "mechanical disk over the fault-injecting store",
		Wraps: "disk",
		FeaturesFor: func(cfg Config) Features {
			cfg.Faults = true
			return diskFeatures(cfg)
		},
		Open: func(cfg Config) (*Backend, error) {
			cfg.Faults = true
			return openDisk(cfg)
		},
	})
	Register(Provider{
		Name:        "striped",
		Brief:       "N-spindle striped volume over window views of one image",
		Wraps:       "disk",
		FeaturesFor: stripedFeatures,
		Open:        openStriped,
	})
	Register(Provider{
		Name:        "objstore",
		Brief:       "object store: fixed per-request latency, parallel channels, no seek curve",
		FeaturesFor: objstoreFeatures,
		Open:        openObjstore,
	})
	Register(Provider{
		Name:        "ssd",
		Brief:       "flash device: microsecond fixed cost, channel parallelism, erase-block FTL, no seek curve",
		FeaturesFor: ssdFeatures,
		Open:        openSSD,
	})
}

// FSKind identifies which file system formatted an image.
type FSKind int

// Image kinds DetectFS can report.
const (
	KindUnknown FSKind = iota
	KindCFFS
	KindFFS
	KindLFS
)

func (k FSKind) String() string {
	switch k {
	case KindCFFS:
		return "cffs"
	case KindFFS:
		return "ffs"
	case KindLFS:
		return "lfs"
	}
	return "unknown"
}

// ErrUnknownImage is wrapped by DetectFS when no known superblock magic
// matches; mkfs is the usual remedy.
var ErrUnknownImage = errors.New("unrecognized file system image")

// DetectFS sniffs the superblock magic at the start of a byte store.
// This is the one image-format probe all tools share; each used to
// re-implement the switch.
func DetectFS(st disk.Store) (FSKind, error) {
	var magic [4]byte
	if err := st.ReadAt(magic[:], 0); err != nil {
		return KindUnknown, err
	}
	switch binary.LittleEndian.Uint32(magic[:]) {
	case core.Magic:
		return KindCFFS, nil
	case ffs.Magic:
		return KindFFS, nil
	case lfs.Magic:
		return KindLFS, nil
	}
	return KindUnknown, fmt.Errorf("%w: superblock magic %#x",
		ErrUnknownImage, binary.LittleEndian.Uint32(magic[:]))
}
