package power

import "fmt"

// DVFS P-state catalog for the provisioning optimizer. A DVFSState is a
// static operating point for closed-form what-if math:
// the CPU runs FreqScale times its nominal clock (service demands stretch
// by 1/FreqScale) and draws PowerScale times its nominal active power.
// PowerScale follows the classic near-cubic P ~ f*V^2 scaling with voltage
// dropping alongside frequency.

// DVFSState is one static frequency/voltage operating point.
type DVFSState struct {
	// Name labels the state ("P0" is nominal).
	Name string `json:"name"`
	// FreqScale multiplies the nominal CPU clock, in (0, 1].
	FreqScale float64 `json:"freq_scale"`
	// PowerScale multiplies the nominal CPU active power, in (0, 1].
	PowerScale float64 `json:"power_scale"`
}

// Validate reports a configuration error, if any.
func (s DVFSState) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("power: dvfs state needs a name")
	case !(s.FreqScale > 0 && s.FreqScale <= 1):
		return fmt.Errorf("power: dvfs state %s freq scale %g outside (0,1]", s.Name, s.FreqScale)
	case !(s.PowerScale > 0 && s.PowerScale <= 1):
		return fmt.Errorf("power: dvfs state %s power scale %g outside (0,1]", s.Name, s.PowerScale)
	}
	return nil
}

// DVFSStates returns the catalog of supported operating points, fastest
// first. P0 is the nominal point (scales are exactly 1, so a P0 search is
// byte-identical to one that never mentions DVFS).
func DVFSStates() []DVFSState {
	return []DVFSState{
		{Name: "P0", FreqScale: 1.0, PowerScale: 1.0},
		{Name: "P1", FreqScale: 0.8, PowerScale: 0.576},
		{Name: "P2", FreqScale: 0.6, PowerScale: 0.27},
	}
}

// DVFSStateByName looks a state up in the catalog.
func DVFSStateByName(name string) (DVFSState, bool) {
	for _, s := range DVFSStates() {
		if s.Name == name {
			return s, true
		}
	}
	return DVFSState{}, false
}
