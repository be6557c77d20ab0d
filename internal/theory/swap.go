package theory

import "math"

// lchoose returns log C(n, k), or -Inf when the binomial is zero.
func lchoose(n, k float64) float64 {
	if k < 0 || n < 0 || k > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(n + 1)
	lk, _ := math.Lgamma(k + 1)
	lnk, _ := math.Lgamma(n - k + 1)
	return ln - lk - lnk
}

// C returns the binomial coefficient C(n, k) as a float64, 0 when invalid.
func C(n, k float64) float64 {
	l := lchoose(n, k)
	if math.IsInf(l, -1) {
		return 0
	}
	return math.Exp(l)
}

// EdgeEndpointFraction returns c(α, β) = Σ_i i·GR_i(α,β) / e^α — the
// IS-incident endpoint mass used by Lemma 3.
func EdgeEndpointFraction(p Params) float64 {
	var sum float64
	for i := 1; i <= p.MaxDegree(); i++ {
		sum += float64(i) * GreedyByDegree(p, i)
	}
	return sum / math.Exp(p.Alpha)
}

// cPrime returns c'(α,β) = ζ(β−1,Δ) / (ζ(β−1,Δ) − 2c(α,β)) from Lemma 3.
func cPrime(p Params, c float64) float64 {
	z := Zeta(p.Beta-1, p.MaxDegree())
	den := z - 2*c
	if den <= 0 {
		return math.Inf(1)
	}
	return z / den
}

// maxSwapDegreeCap bounds the degree range the swap-gain sums iterate over.
// Lemma 3's whole point is that d_s is a small constant — the T(x, y, i)
// contributions decay geometrically in degree — so truncating the O(d_s³)
// triple sum here changes the estimate by a vanishing amount while keeping
// it cheap even when the closed form degenerates (c' → 1 at small β).
const maxSwapDegreeCap = 64

// MaxSwapDegree returns d_s, the largest degree that can contribute new IS
// vertices in a 1-k swap with non-negligible probability (Lemma 3):
// d_s ≤ (α + ln ζ(β, Δ)) / ln c'(α, β) = ln|V| / ln c'.
func MaxSwapDegree(p Params) int {
	return maxSwapDegreeFromC(p, EdgeEndpointFraction(p))
}

func maxSwapDegreeFromC(p Params, c float64) int {
	cp := cPrime(p, c)
	ds := maxSwapDegreeCap
	if !math.IsInf(cp, 1) && cp > 1 {
		lnV := p.Alpha + math.Log(Zeta(p.Beta, p.MaxDegree()))
		if d := int(math.Ceil(lnV / math.Log(cp))); d < ds {
			ds = d
		}
	}
	if ds < 2 {
		ds = 2
	}
	if ds > p.MaxDegree() {
		ds = p.MaxDegree()
	}
	return ds
}

// binsBallsPr is Equation (14): the probability that, throwing m1 type-1 and
// m2 type-2 balls into n bins of capacity d, the first bin receives at least
// one ball of each type.
func binsBallsPr(m1, m2, n, d float64) float64 {
	if m1 < 1 || m2 < 1 || n < 1 || d < 1 {
		return 0
	}
	num := lchoose(d, 1) + lchoose(n-d, m1-1) + lchoose(d-1, 1) + lchoose(n-d-m1+1, m2-1)
	den := lchoose(n, m1) + lchoose(n-m1, m2)
	if math.IsInf(num, -1) || math.IsInf(den, -1) {
		return 0
	}
	pr := math.Exp(num - den)
	if pr > 1 {
		pr = 1
	}
	return pr
}

// swapModel caches the per-degree quantities shared by SwapGain and SCBound.
type swapModel struct {
	p     Params
	ds    int
	gr    []float64 // gr[i] = GR_i, 1-indexed
	nv    []float64 // nv[i] = expected vertices of degree i
	a     []float64 // a[i] = |A_i| (adjacent vertices of degree i)
	wMass float64   // Σ_{x≥2} x·GR_x, the ISN target mass
	c     float64   // EdgeEndpointFraction
	z     float64   // ζ(β−1, Δ)
}

func newSwapModel(p Params) *swapModel {
	m := &swapModel{p: p}
	delta := p.MaxDegree()
	m.gr = make([]float64, delta+1)
	m.nv = make([]float64, delta+1)
	m.a = make([]float64, delta+1)
	m.z = Zeta(p.Beta-1, delta)
	ea := math.Exp(p.Alpha)
	var dangerMass, selectedMass float64
	for i := 1; i <= delta; i++ {
		gri, cond := greedyDegreeRates(p, i, m.z, dangerMass)
		m.gr[i] = gri
		m.nv[i] = p.VerticesOfDegree(i)
		ni := math.Floor(ea / math.Pow(float64(i), p.Beta))
		dangerMass += float64(i) * ni * cond
		selectedMass += float64(i) * gri
	}
	m.c = selectedMass / ea
	m.ds = maxSwapDegreeFromC(p, m.c)
	// ISN targets are distributed over the *whole* IS endpoint mass —
	// including degree-1 IS vertices, which soak up most A vertices yet can
	// never host a 1-2 swap (their single neighbor is the A vertex itself).
	for x := 1; x <= delta; x++ {
		m.wMass += float64(x) * m.gr[x]
	}
	// |A_i|: non-IS degree-i vertices with exactly one IS neighbor,
	// conditioned on having at least one (Equation 13).
	pIS := m.c / m.z // chance one random endpoint lands on an IS vertex
	if pIS > 1 {
		pIS = 1
	}
	for i := 1; i <= m.ds; i++ {
		nonIS := m.nv[i] - m.gr[i]
		if nonIS <= 0 {
			continue
		}
		exactlyOne := float64(i) * pIS * math.Pow(1-pIS, float64(i-1))
		atLeastOne := 1 - math.Pow(1-pIS, float64(i))
		if atLeastOne <= 0 {
			continue
		}
		frac := exactlyOne / atLeastOne
		if frac > 1 {
			frac = 1
		}
		m.a[i] = nonIS * frac
	}
	return m
}

// aTo returns |A_{x,i}|: A vertices of degree x whose ISN has degree i
// (Lemma 4 requires i ≤ x), distributing A_x over IS targets proportionally
// to their degree mass.
func (m *swapModel) aTo(x, i int) float64 {
	if m.wMass <= 0 || i > x || i < 2 {
		return 0
	}
	return m.a[x] * float64(i) * m.gr[i] / m.wMass
}

// t is T(x, y, i) in the spirit of Equation (15): the expected number of IS
// vertices of degree i exchanged for two A vertices of degrees x and y.
// Exposed for the per-pair decomposition; SwapGain itself aggregates the
// ball types first (see below).
func (m *swapModel) t(x, y, i int) float64 {
	bins := m.gr[i]
	if bins < 1 {
		return 0
	}
	pr := binsBallsPr(m.aTo(x, i), m.aTo(y, i), bins, float64(i))
	return bins * pr
}

// atLeastTwoPr is the bins-and-balls probability that the first of n bins
// (capacity d) receives at least two of m balls — the event that an IS
// vertex has two swap partners, i.e. a 1-2 swap skeleton exists for it.
func atLeastTwoPr(mBalls, n, d float64) float64 {
	if mBalls < 2 || n < 1 || d < 2 {
		return 0
	}
	den := lchoose(n, mBalls)
	if math.IsInf(den, -1) {
		return 0
	}
	p0 := math.Exp(lchoose(n-d, mBalls) - den)
	p1 := d * math.Exp(lchoose(n-d, mBalls-1)-den)
	pr := 1 - p0 - p1
	if pr < 0 {
		return 0
	}
	if pr > 1 {
		return 1
	}
	return pr
}

// SwapGain returns SG(α, β), the expected number of net-new IS vertices
// added by the first round of one-k-swap on top of the greedy solution
// (Proposition 5). Each successful 1↔2 swap removes one IS vertex and adds
// two, so the net gain equals the number of swapped IS vertices: a degree-i
// IS vertex w swaps when at least two of the A vertices naming it as their
// only IS neighbor are mutually non-adjacent, which the bins-and-balls
// model of Equation (14) evaluates with the A masses of Lemma 4 (only A
// vertices of degree ≥ i target w, and no degree beyond d_s contributes —
// Lemma 3).
//
// Note on fidelity: Equation (5) as printed sums T(x, y, i) over every
// degree pair (x, y), which counts the same IS vertex once per pair and
// diverges as soon as the A masses saturate the per-pair probability; we
// aggregate the partner mass per target degree instead, which keeps the
// estimate bounded by GR_i per degree and matches the measured swap gains.
func SwapGain(p Params) float64 {
	m := newSwapModel(p)
	var sg float64
	for i := 2; i <= m.ds; i++ {
		bins := m.gr[i]
		if bins < 1 {
			continue
		}
		var partners float64
		for x := i; x <= m.ds; x++ {
			partners += m.aTo(x, i)
		}
		gain := bins * atLeastTwoPr(partners, bins, float64(i))
		if gain > bins {
			gain = bins
		}
		sg += gain
	}
	return sg
}

// OneKSwap returns the expected IS size after one round of one-k-swap:
// GR(α, β) + SG(α, β).
func OneKSwap(p Params) float64 {
	return Greedy(p) + SwapGain(p)
}

// MaxSCDegree returns d_2k from Lemma 6 (Equation 17), the largest degree of
// vertices that can appear in SC sets.
func MaxSCDegree(p Params) int {
	c := EdgeEndpointFraction(p)
	z := Zeta(p.Beta-1, p.MaxDegree())
	if z-c <= 0 || z-2*c <= 0 {
		return p.MaxDegree()
	}
	num := p.Alpha + math.Log(Zeta(p.Beta, p.MaxDegree())) + 2*math.Log(z/(z-c))
	den := math.Log((z - c) / (z - 2*c))
	if den <= 0 {
		return p.MaxDegree()
	}
	d := int(math.Ceil(num / den))
	if d < 2 {
		d = 2
	}
	if d > p.MaxDegree() {
		d = p.MaxDegree()
	}
	return d
}

// SCBound returns Lemma 6's high-probability bound on the total number of
// vertices stored in SC sets during one two-k-swap round (Equation 19).
// The paper further relaxes it to |V| − e^α; we return the tighter sum.
func SCBound(p Params) float64 {
	m := newSwapModel(p)
	d2k := MaxSCDegree(p)
	pIS := m.c / m.z
	if pIS > 1 {
		pIS = 1
	}
	// p_i: probability a non-IS vertex of degree d2k has i IS neighbors.
	pi := func(i int) float64 {
		return C(float64(d2k), float64(i)) * math.Pow(pIS, float64(i)) *
			math.Pow(1-pIS, float64(d2k-i))
	}
	bmax := 0.0
	if m.z-2*m.c > 0 && m.z/(m.z-2*m.c) > 1 {
		bmax = m.c / m.z / math.Log(m.z/(m.z-2*m.c))
	}
	var sum float64
	for i := 2; i <= d2k; i++ {
		var cum float64
		for j := 1; j <= i; j++ {
			cum += pi(j)
		}
		if cum <= 0 {
			continue
		}
		contrib := m.nv[min(i, len(m.nv)-1)] * (float64(i)*bmax*pi(1) + pi(2)) / cum
		if contrib > 0 {
			sum += contrib
		}
	}
	limit := p.NumVertices() - math.Exp(p.Alpha)
	if sum > limit && limit > 0 {
		sum = limit
	}
	return sum
}
