type config = {
  trees : int;
  nodes : int;
  pre : int;
  seed : int;
  cost : Cost.basic;
}

let default_config () =
  {
    trees = 20;
    nodes = 60;
    pre = 20;
    seed = 1;
    cost = Cost.basic ~create:0.01 ~delete:0.001 ();
  }

type row = {
  shape : string;
  mean_height : float;
  dp_reused : float;
  gr_reused : float;
  dp_seconds : float;
  power_states : float;
}

let shapes nodes =
  let profile min_children max_children =
    {
      Generator.nodes;
      min_children;
      max_children;
      client_probability = 0.5;
      min_requests = 1;
      max_requests = 5;
    }
  in
  [
    ("chain-like (1)", profile 1 1);
    ("binary (2)", profile 2 2);
    ("high (2-4)", profile 2 4);
    ("fat (6-9)", profile 6 9);
    ("bushy (12-16)", profile 12 16);
  ]

let run config =
  let w = Workload.capacity in
  let modes = Modes.make [ 5; 10 ] in
  List.map
    (fun (name, profile) ->
      let master = Rng.create config.seed in
      let heights = ref []
      and dp_reused = ref []
      and gr_reused = ref []
      and dp_secs = ref []
      and states = ref [] in
      for _ = 1 to config.trees do
        let rng = Rng.split master in
        let tree =
          Generator.add_pre_existing rng (Generator.random rng profile)
            config.pre
        in
        heights := float_of_int (Tree.height tree) :: !heights;
        states :=
          float_of_int (Dp_power.root_state_count tree ~modes) :: !states;
        let secs, dp =
          Stats.time (fun () -> Dp_withpre.solve tree ~w ~cost:config.cost)
        in
        dp_secs := secs :: !dp_secs;
        match (dp, Greedy.solve tree ~w) with
        | Some d, Some g ->
            dp_reused := float_of_int d.Dp_withpre.reused :: !dp_reused;
            gr_reused := float_of_int (Solution.reused tree g) :: !gr_reused
        | None, None -> ()
        | Some _, None | None, Some _ -> assert false
      done;
      {
        shape = name;
        mean_height = Stats.mean !heights;
        dp_reused = Stats.mean !dp_reused;
        gr_reused = Stats.mean !gr_reused;
        dp_seconds = Stats.mean !dp_secs;
        power_states = Stats.mean !states;
      })
    (shapes config.nodes)

let to_table ?(no_time = false) rows =
  let table =
    Table.make
      ~header:
        [
          "shape";
          "mean height";
          "DP reused";
          "GR reused";
          "DP seconds";
          "power DP states";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.shape;
          Table.fmt_float ~decimals:1 r.mean_height;
          Table.fmt_float ~decimals:2 r.dp_reused;
          Table.fmt_float ~decimals:2 r.gr_reused;
          (if no_time then "-" else Table.fmt_float ~decimals:5 r.dp_seconds);
          Table.fmt_float ~decimals:0 r.power_states;
        ])
    rows;
  table
