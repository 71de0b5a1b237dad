"""The repository benchmark: three workloads driven through each layer's
public entry points, end to end and per layer.  See README.md."""
