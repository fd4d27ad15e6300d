// Package pricing is the price book for the simulated cloud. All prices are
// in US dollars and follow the public AWS us-east-1 list prices the paper's
// evaluation period used (2022/2023). Every component that bills — the
// serverless platform and the four external storage services — reads its
// rates from a PriceBook so that experiments can vary pricing assumptions.
package pricing

// PriceBook collects every rate the simulator bills against.
type PriceBook struct {
	// Lambda-style function pricing.
	FunctionGBSecond  float64 // $ per GB-second of allocated memory
	FunctionInvoke    float64 // $ per invocation
	FunctionMinBillMS float64 // minimum billed duration per invocation, ms

	// S3-style object storage: charged per request.
	S3PutRequest float64 // $ per PUT/POST
	S3GetRequest float64 // $ per GET

	// DynamoDB-style KV storage: charged per request unit. A write unit
	// covers WriteUnitKB kilobytes; a read unit covers ReadUnitKB.
	DynamoWriteUnit float64 // $ per write request unit
	DynamoReadUnit  float64 // $ per read request unit
	DynamoWriteKB   float64 // KB covered by one write unit
	DynamoReadKB    float64 // KB covered by one read unit

	// ElastiCache-style in-memory store: charged per node-hour.
	ElastiCacheNodeHour float64

	// EC2-style VM used as a parameter server: charged per hour.
	VMHour float64

	// Data transfer within the region is free on AWS; kept as a knob.
	TransferPerGB float64
}

// Default returns the AWS-like price book used throughout the evaluation.
func Default() PriceBook {
	return PriceBook{
		FunctionGBSecond:  0.0000166667, // Lambda x86 $/GB-s
		FunctionInvoke:    0.20 / 1e6,   // $0.20 per 1M requests
		FunctionMinBillMS: 1,            // 1 ms billing granularity

		S3PutRequest: 0.005 / 1000,  // $0.005 per 1k PUT
		S3GetRequest: 0.0004 / 1000, // $0.0004 per 1k GET

		DynamoWriteUnit: 1.25 / 1e6, // on-demand WRU
		DynamoReadUnit:  0.25 / 1e6, // on-demand RRU
		DynamoWriteKB:   1,
		DynamoReadKB:    4,

		ElastiCacheNodeHour: 0.34,  // cache.r6g.large-ish
		VMHour:              0.192, // m5.xlarge-ish

		TransferPerGB: 0,
	}
}

// ComputeOnlyCost returns the compute charge for one function that ran for
// seconds wall-clock with memMB of allocated memory, without the invocation
// fee: that is accounted once per function rather than per epoch.
func (p PriceBook) ComputeOnlyCost(seconds float64, memMB float64) float64 {
	billed := seconds
	min := p.FunctionMinBillMS / 1000
	if billed < min {
		billed = min
	}
	return billed * (memMB / 1024) * p.FunctionGBSecond
}

// DynamoWriteCost returns the charge for writing an object of sizeKB.
func (p PriceBook) DynamoWriteCost(sizeKB float64) float64 {
	units := ceilDiv(sizeKB, p.DynamoWriteKB)
	return units * p.DynamoWriteUnit
}

// DynamoReadCost returns the charge for reading an object of sizeKB.
func (p PriceBook) DynamoReadCost(sizeKB float64) float64 {
	units := ceilDiv(sizeKB, p.DynamoReadKB)
	return units * p.DynamoReadUnit
}

// HourlyCost returns the charge for running an hourly-billed resource for
// seconds of wall-clock time, with per-minute rounding (the paper models
// "(t/60 + 1)"-style rounding for runtime-charged storage; we bill whole
// minutes, minimum one).
func HourlyCost(ratePerHour, seconds float64) float64 {
	minutes := ceilDiv(seconds, 60)
	if minutes < 1 {
		minutes = 1
	}
	return ratePerHour / 60 * minutes
}

func ceilDiv(x, unit float64) float64 {
	if unit <= 0 {
		return 0
	}
	n := x / unit
	i := float64(int64(n))
	if n > i {
		i++
	}
	if i < 1 {
		i = 1
	}
	return i
}
