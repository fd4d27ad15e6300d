// Package repro is a from-scratch Go reproduction of "QoS-Aware and
// Cost-Efficient Dynamic Resource Allocation for Serverless ML Workflows"
// (Wu et al., IPDPS 2023) — the CE-scaling framework — together with the
// simulated serverless substrate (FaaS platform, external storage services,
// real SGD training) its evaluation runs on.
//
// The public API lives in repro/cescaling; the per-subsystem implementation
// is under internal/ (see DESIGN.md for the inventory); every table and
// figure of the paper's evaluation regenerates via cmd/cebench.
package repro
