module cgdqp/benchmark

go 1.22

require cgdqp v0.0.0

replace cgdqp => ../
