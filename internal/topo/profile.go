package topo

// ProtocolProfile holds both the placement parameters (where hosts of a
// protocol live at month 0) and the churn parameters (how the population
// evolves month over month). The defaults below are calibrated so that the
// experiment harness reproduces the bands of the paper's Table 1 and
// Figures 3–6; DESIGN.md §5 derives the values.
type ProtocolProfile struct {
	// Name is the protocol label ("ftp", "http", ...).
	Name string

	// TargetHosts is the approximate population size at month 0.
	TargetHosts int

	// Affinity maps PrefixKind to a relative weight: how strongly the
	// protocol concentrates on prefixes of that kind.
	Affinity [numKinds]float64

	// SizeExponent gamma makes the expected host count of a prefix grow
	// like size^gamma: sub-linear, so large prefixes are almost always
	// responsive yet have low density (the paper's sparse giants).
	SizeExponent float64

	// DensitySigma is the sigma of the per-prefix lognormal intensity
	// multiplier; it controls how heavy the density tail is (Figure 4).
	DensitySigma float64

	// UniformFloor is the share of the population scattered uniformly
	// over the announced address space, independent of prefix affinity.
	// It creates the paper's "sparse giants": large prefixes that are
	// responsive but have very low density, so that φ=1 requires much
	// more address space than φ=0.99 (Table 1).
	UniformFloor float64

	// MClusterWeight is the probability that a host of this protocol in a
	// parented l-prefix sits inside one of the announced more-specifics.
	// High values make m-prefix selection efficient (Table 1, lower half).
	MClusterWeight float64

	// DynamicShare is the fraction of hosts behind dynamic addressing;
	// they re-roll their address every month (within their prefix), which
	// breaks address hitlists but not prefix selection (Fig 5 vs Fig 6).
	DynamicShare float64

	// MLocality is the probability that a dynamic re-roll stays inside
	// the host's current m-partition piece rather than anywhere in its
	// l-prefix. Values below 1 are what make m-prefix TASS decay faster
	// than l-prefix TASS (Figure 6a).
	MLocality float64

	// DeathRate is the monthly probability that a host disappears; the
	// population is kept stationary by an equal birth flow.
	DeathRate float64

	// MoveRate is the monthly probability that a surviving host re-homes
	// to an unrelated announced address (provider change). This is the
	// dominant source of TASS accuracy decay.
	MoveRate float64

	// MoveColdShare is the fraction of re-homings that land in "cold"
	// space — l-prefixes that hosted nothing at seed time — rather than
	// uniformly in the announced space. Cold landings are lost to every
	// selection regardless of φ, which keeps the φ=0.95 decay rate close
	// to the φ=1 rate, as the paper observes (Figure 6b).
	MoveColdShare float64

	// BirthBackground is the fraction of births placed uniformly in the
	// announced space instead of proportionally to the existing
	// population; it seeds previously-empty prefixes.
	BirthBackground float64
}

// DefaultProfiles returns the four protocols the paper evaluates, with
// churn calibrated to the paper's measurements:
//
//   - hitlists keep ≈80 % of FTP/HTTP/HTTPS hosts after one month and
//     ≈71 % (HTTP) after six; CWMP collapses to ≈43 % (Figure 5);
//   - TASS at φ=1 loses ≈0.3 %/month on l-prefixes and up to
//     ≈0.7 %/month on m-prefixes (Figure 6a).
func DefaultProfiles(scale float64) []ProtocolProfile {
	n := func(base int) int { return int(float64(base) * scale) }
	return []ProtocolProfile{
		{
			Name:        "ftp",
			TargetHosts: n(1_200_000),
			// FTP: hosting and enterprise, a little residential NAS.
			Affinity:        [numKinds]float64{KindResidential: 0.30, KindHosting: 1.0, KindEnterprise: 0.60, KindInfrastructure: 0.25},
			SizeExponent:    0.80,
			DensitySigma:    2.2,
			UniformFloor:    0.062,
			MClusterWeight:  0.75,
			DynamicShare:    0.17,
			MLocality:       0.90,
			DeathRate:       0.012,
			MoveRate:        0.0060,
			MoveColdShare:   0.50,
			BirthBackground: 0.10,
		},
		{
			Name:            "http",
			TargetHosts:     n(2_400_000),
			Affinity:        [numKinds]float64{KindResidential: 0.50, KindHosting: 1.0, KindEnterprise: 0.75, KindInfrastructure: 0.35},
			SizeExponent:    0.75,
			DensitySigma:    2.1,
			UniformFloor:    0.040,
			MClusterWeight:  0.72,
			DynamicShare:    0.18,
			MLocality:       0.90,
			DeathRate:       0.012,
			MoveRate:        0.0050,
			MoveColdShare:   0.50,
			BirthBackground: 0.10,
		},
		{
			Name:            "https",
			TargetHosts:     n(2_100_000),
			Affinity:        [numKinds]float64{KindResidential: 0.45, KindHosting: 1.0, KindEnterprise: 0.75, KindInfrastructure: 0.35},
			SizeExponent:    0.78,
			DensitySigma:    2.1,
			UniformFloor:    0.050,
			MClusterWeight:  0.72,
			DynamicShare:    0.16,
			MLocality:       0.90,
			DeathRate:       0.011,
			MoveRate:        0.0048,
			MoveColdShare:   0.50,
			BirthBackground: 0.10,
		},
		{
			Name:        "cwmp",
			TargetHosts: n(1_600_000),
			// TR-069 remote management: residential gateways, full stop.
			Affinity:        [numKinds]float64{KindResidential: 1.0, KindHosting: 0.004, KindEnterprise: 0.02, KindInfrastructure: 0.004},
			SizeExponent:    0.74,
			DensitySigma:    2.0,
			UniformFloor:    0.0025,
			MClusterWeight:  0.80,
			DynamicShare:    0.30,
			MLocality:       0.92,
			DeathRate:       0.072,
			MoveRate:        0.0050,
			MoveColdShare:   0.50,
			BirthBackground: 0.06,
		},
	}
}
