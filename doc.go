// Package cffs is a reproduction of "Embedded Inodes and Explicit
// Grouping: Exploiting Disk Bandwidth for Small Files" (Ganger &
// Kaashoek, USENIX 1997).
//
// The implementation lives under internal/: a detailed simulated disk
// (internal/disk), a C-LOOK block driver (internal/sched,
// internal/blockio), a dual-indexed buffer cache (internal/cache), the
// C-FFS file system with embedded inodes and explicit grouping
// (internal/core), an independent FFS baseline (internal/ffs), offline
// checkers (internal/fsck), and the paper's workloads and experiment
// harness (internal/workload, internal/aging, internal/bench).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduced tables and figures. cmd/cffsbench
// regenerates every table and figure under its declared gates;
// benchmark/ is the repository's one host- and simulated-clock
// benchmark.
package cffs
