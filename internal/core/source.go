package core

import "repro/internal/pipeline"

// Source is the scan engine an algorithm pass reads the graph through: the
// one scan contract, declared by the pass scheduler (see pipeline.Source).
type Source = pipeline.Source
