package grid

// PriceModel is the electricity tariff the cost estimates read: the
// paper's §1 motivation includes that "lifetime electricity costs now
// matching or even exceeding the capital costs" of large HPC systems.
type PriceModel struct {
	// Base is the mean price per kWh.
	Base float64
	// ScarcityMultiplier is the factor on Base that electricity trades at
	// during a stress event, when capacity is scarce.
	ScarcityMultiplier float64
}

// GB2022Prices returns a model for the 2022 GB wholesale market, a year of
// extreme prices (~0.25/kWh average commercial rate).
func GB2022Prices() PriceModel {
	return PriceModel{Base: 0.25, ScarcityMultiplier: 3.0}
}
