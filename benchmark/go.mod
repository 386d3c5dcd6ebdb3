module advmal/benchmark

go 1.22

require advmal v0.0.0

replace advmal => ../
