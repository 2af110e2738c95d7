module streampca/benchmark

go 1.22

require streampca v0.0.0

replace streampca => ../
