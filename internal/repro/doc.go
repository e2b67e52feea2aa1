// Package repro is the root of the paper-artefact tree: everything that
// exists to regenerate a table or figure of the source paper rather
// than to run an experiment. One package per chapter — ch2 (survey
// tables), ch3 (Fenrir scheduling study), ch4 (Bifrost overhead and
// engine scaling), ch5 (topology ranking quality and performance) —
// each a client of the production package it evaluates.
//
// Nothing outside cmd/repro imports this tree, and only this tree,
// internal/demo, internal/scenario and examples/ may import the
// simulators (microsim, loadgen) or net/http/httptest;
// TestImportDAG at the repository root holds both rules.
package repro
