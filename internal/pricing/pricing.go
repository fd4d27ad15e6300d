// Package pricing is the price list of the simulated cloud. All prices are
// in US dollars and follow the public AWS us-east-1 list prices the paper's
// evaluation period used (2022/2023). Every component that bills — the
// serverless platform and the four external storage services — reads these
// constants where it bills.
package pricing

// Lambda-style function pricing.
const (
	FunctionGBSecond  float64 = 0.0000166667 // $ per GB-second of allocated memory (Lambda x86)
	FunctionInvoke    float64 = 0.20 / 1e6   // $ per invocation: $0.20 per 1M requests
	FunctionMinBillMS float64 = 1            // minimum billed duration per invocation, ms
)

// S3-style object storage: charged per request.
const (
	S3PutRequest float64 = 0.005 / 1000  // $ per PUT/POST: $0.005 per 1k
	S3GetRequest float64 = 0.0004 / 1000 // $ per GET: $0.0004 per 1k
)

// DynamoDB-style KV storage: charged per on-demand request unit. A write
// unit covers DynamoWriteKB kilobytes; a read unit covers DynamoReadKB.
const (
	DynamoWriteUnit float64 = 1.25 / 1e6 // $ per write request unit
	DynamoReadUnit  float64 = 0.25 / 1e6 // $ per read request unit
	DynamoWriteKB   float64 = 1          // KB covered by one write unit
	DynamoReadKB    float64 = 4          // KB covered by one read unit
)

// Hourly-billed resources.
const (
	ElastiCacheNodeHour float64 = 0.34  // $ per ElastiCache node-hour (cache.r6g.large-ish)
	VMHour              float64 = 0.192 // $ per hour of the EC2 parameter-server VM (m5.xlarge-ish)
)

// ComputeOnlyCost returns the compute charge for one function that ran for
// seconds wall-clock with memMB of allocated memory, without the invocation
// fee: that is accounted once per function rather than per epoch.
func ComputeOnlyCost(seconds float64, memMB float64) float64 {
	billed := seconds
	min := FunctionMinBillMS / 1000
	if billed < min {
		billed = min
	}
	return billed * (memMB / 1024) * FunctionGBSecond
}

// DynamoWriteCost returns the charge for writing an object of sizeKB.
func DynamoWriteCost(sizeKB float64) float64 {
	return ceilDiv(sizeKB, DynamoWriteKB) * DynamoWriteUnit
}

// DynamoReadCost returns the charge for reading an object of sizeKB.
func DynamoReadCost(sizeKB float64) float64 {
	return ceilDiv(sizeKB, DynamoReadKB) * DynamoReadUnit
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
