module funcdb/bench

go 1.24

require funcdb v0.0.0

replace funcdb => ../
