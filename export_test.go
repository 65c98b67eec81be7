package commute

// CodeBuilt reports whether the System's interpreter code has been
// built. Call it only when no execution of the System can be running.
func (s *System) CodeBuilt() bool { return s.code != nil }
