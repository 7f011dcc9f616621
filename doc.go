// Package moteur is the root of this reproduction of
//
//	Glatard, Montagnat, Pennec — "Efficient services composition for
//	grid-enabled data-intensive applications", HPDC 2006.
//
// The building blocks live in the internal packages: internal/workflow
// and internal/iterstrat define service-based workflows, internal/core
// is the MOTEUR enactor with data parallelism, service parallelism and
// job grouping, internal/services wraps executables as grid jobs,
// internal/grid and internal/sim simulate an EGEE-style production grid,
// and internal/campaign, internal/federation, internal/scenario and
// internal/daemon run multi-tenant campaigns across federated grids.
// The programs under examples/ and cmd/ use them directly; the CLIs
// that run federated campaigns (cmd/federation, cmd/moteurd) take their
// world only from a scenario file under scenarios/.
//
// This package holds only the repository-level benchmarks (the paper's
// tables, enactor and campaign scaling, the federation tiers) and their
// allocation guard.
package moteur
