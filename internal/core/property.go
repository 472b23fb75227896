// Package core implements the paper's primary contribution: the
// (k, ε)-obfuscation algorithm of Section 5, which injects a minimal
// amount of edge uncertainty into a graph so that the published
// uncertain graph k-obfuscates all but an ε-fraction of vertices.
//
// Algorithm 1 (Obfuscate) binary-searches the noise parameter σ;
// Algorithm 2 (GenerateObfuscation) attempts one obfuscation at a given
// σ: it scores vertex uniqueness (Definition 3), excludes the hardest
// ⌈ε/2·n⌉ vertices, grows a candidate pair set E_C by
// uniqueness-weighted sampling, spreads the uncertainty budget over E_C
// in proportion to pair uniqueness (Eq. 7), draws perturbations from the
// truncated normal R_σ(e) (with a q-fraction of uniform white noise),
// and verifies the result with the adversary model.
package core

import "uncertaingraph/internal/graph"

// Property is a vertex property P: V -> Ω_P with a distance on Ω_P,
// used for uniqueness scoring (paper Definition 3). The paper evaluates
// the degree property (P1), the one this package provides; a caller may
// plug in another property for scoring, while the obfuscation *check*
// in this package is degree-based, as in the paper's experiments.
type Property interface {
	// Name identifies the property in logs and reports.
	Name() string
	// Values returns P(v) for every vertex of g.
	Values(g *graph.Graph) []int
	// Distance returns d(a, b) >= 0 between two property values.
	Distance(a, b int) float64
}

// DegreeProperty is the paper's property P1: P(v) = deg(v) with
// d(ω, ω') = |ω - ω'|.
type DegreeProperty struct{}

// Name implements Property.
func (DegreeProperty) Name() string { return "degree" }

// Values implements Property.
func (DegreeProperty) Values(g *graph.Graph) []int { return g.Degrees() }

// Distance implements Property.
func (DegreeProperty) Distance(a, b int) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
