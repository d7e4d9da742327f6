let add = Buffer.add_string

let provenance tree j =
  match Tree.initial_mode tree j with
  | Some m -> Printf.sprintf "reused (was mode %d)" m
  | None -> "new"

let violations_section buf tree ~w solution =
  match Solution.validate tree ~w solution with
  | Ok _ -> ()
  | Error violations ->
      add buf "VIOLATIONS:\n";
      List.iter
        (fun v ->
          match v with
          | Solution.Overloaded (j, load) ->
              add buf
                (Printf.sprintf "  node %d overloaded: %d > %d\n" j load w)
          | Solution.Qos_violated (j, dist) ->
              add buf
                (Printf.sprintf "  node %d clients served %d hops away (QoS %d)\n"
                   j dist (Tree.qos_radius tree j))
          | Solution.Link_overloaded (j, f) ->
              add buf
                (Printf.sprintf "  link %d->parent overloaded: %d > %d\n" j f
                   (Tree.bandwidth tree j))
          | Solution.Unserved r ->
              add buf (Printf.sprintf "  %d requests unserved\n" r))
        violations

let deletions_section buf tree solution =
  let dropped =
    List.filter
      (fun j -> not (Solution.mem solution j))
      (Tree.pre_existing tree)
  in
  if dropped <> [] then begin
    add buf "deleted pre-existing servers:";
    List.iter (fun j -> add buf (Printf.sprintf " %d" j)) dropped;
    add buf "\n"
  end

let cost_report tree ~w cost solution =
  let buf = Buffer.create 512 in
  let ev = Solution.evaluate tree solution in
  add buf
    (Printf.sprintf "placement: %d servers for %d requests (W = %d)\n"
       (Solution.cardinal solution)
       (Tree.total_requests tree) w);
  List.iter
    (fun (j, load) ->
      add buf
        (Printf.sprintf "  node %-4d load %3d/%d  %s\n" j load w
           (provenance tree j)))
    ev.Solution.loads;
  deletions_section buf tree solution;
  add buf
    (Printf.sprintf "reused %d of %d pre-existing servers\n"
       (Solution.reused tree solution)
       (Tree.num_pre_existing tree));
  add buf (Printf.sprintf "cost (Eq. 2): %.3f\n" (Solution.basic_cost tree cost solution));
  violations_section buf tree ~w solution;
  Buffer.contents buf

let histograms_report ~timers () =
  let module M = Replica_obs.Metrics in
  (* The unlabeled histograms (the solvers' per-node ones). Wall-clock
     histograms (the [_ns] convention) are nondeterministic; keep the
     default report pinnable by cram tests. *)
  let wanted name =
    timers || not (String.length name > 3 && Filename.check_suffix name "_ns")
  in
  let hists =
    List.filter_map
      (fun s ->
        match s.M.s_value with
        | M.Sample_histogram h when s.M.s_labels = [] && wanted s.M.s_name ->
            Some (s.M.s_name, h)
        | _ -> None)
      (M.samples ())
  in
  match hists with
  | [] -> ""
  | _ ->
      let buf = Buffer.create 256 in
      let width =
        List.fold_left
          (fun acc (name, _) -> max acc (String.length name))
          0 hists
      in
      List.iter
        (fun (name, h) ->
          Buffer.add_string buf
            (Printf.sprintf "%-*s count %d  p50 %d  p90 %d  p99 %d\n" width
               name h.M.hs_count h.M.hs_p50 h.M.hs_p90 h.M.hs_p99))
        hists;
      Buffer.contents buf

let stats_report ?(timers = false) () =
  let body =
    if timers then Stats_counters.report () else Stats_counters.counters_report ()
  in
  "--- solver statistics ---\n" ^ body ^ histograms_report ~timers ()

let power_report tree modes power cost solution =
  let buf = Buffer.create 512 in
  let w = Modes.max_capacity modes in
  let ev = Solution.evaluate tree solution in
  add buf
    (Printf.sprintf "placement: %d servers for %d requests (modes%s)\n"
       (Solution.cardinal solution)
       (Tree.total_requests tree)
       (String.concat ""
          (List.map (fun c -> Printf.sprintf " %d" c) (Modes.capacities modes))));
  List.iter
    (fun (j, load) ->
      let mode = Modes.mode_of_load modes load in
      add buf
        (Printf.sprintf "  node %-4d load %3d -> mode W%d (%.1f W)  %s\n" j
           load mode
           (Power.of_mode power modes mode)
           (provenance tree j)))
    ev.Solution.loads;
  deletions_section buf tree solution;
  add buf
    (Printf.sprintf "power (Eq. 3): %.3f\n"
       (Solution.power tree modes power solution));
  add buf
    (Printf.sprintf "cost (Eq. 4): %.3f\n"
       (Solution.modal_cost tree modes cost solution));
  violations_section buf tree ~w solution;
  Buffer.contents buf
