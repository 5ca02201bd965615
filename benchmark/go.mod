module xqp/benchmark

go 1.22

require xqp v0.0.0

replace xqp => ../
