module adr/bench

go 1.22

require adr v0.0.0

replace adr => ../
