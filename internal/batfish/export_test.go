package batfish

// RunFullRounds exposes the full-round reference simulation to the
// external test package, whose differential tests compare it with Run.
func (s *Sim) RunFullRounds() *Result { return s.runFullRounds() }
