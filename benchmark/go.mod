module ariesrh/benchmark

go 1.22

require ariesrh v0.0.0

replace ariesrh => ../
