"""Fixed-point weight quantization benchmarks for small neural networks."""
