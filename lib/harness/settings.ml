open Memclust_cluster
open Memclust_sim

type t = {
  sim_mode : Machine.mode option;
  faults : Faults.plan option;
  chaos : Pass.chaos option;
  watchdog_cycles : int option;
  time_budget : float option;
}

let default =
  {
    sim_mode = None;
    faults = None;
    chaos = None;
    watchdog_cycles = None;
    time_budget = None;
  }

let config t cfg =
  let set f v cfg = Option.fold ~none:cfg ~some:(fun v -> f v cfg) v in
  cfg
  |> set Config.with_sim_mode (Option.map Machine.mode_to_string t.sim_mode)
  |> set Config.with_faults t.faults

let options t (o : Driver.options) =
  match t.chaos with Some _ -> { o with Driver.chaos = t.chaos } | None -> o

let digest t = Digest.to_hex (Digest.string (Marshal.to_string t []))
