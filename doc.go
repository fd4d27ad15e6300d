// Package repro is a from-scratch Go reproduction of "QoS-Aware and
// Cost-Efficient Dynamic Resource Allocation for Serverless ML Workflows"
// (Wu et al., IPDPS 2023) — the CE-scaling framework — together with the
// simulated serverless substrate (FaaS platform, external storage services,
// real SGD training) its evaluation runs on.
//
// The entry points are cmd/cebench, which regenerates every table and figure
// of the paper's evaluation; cmd/cescale, which emits the JSON allocation
// plans; and internal/core, the framework both drive. The other subsystems
// are under internal/ too (see DESIGN.md for the inventory). The Example
// tests in example_test.go walk through core end to end.
package repro
