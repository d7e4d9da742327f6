(* replica_cli generate: random distribution trees, stats and renderings. *)

open Replica_tree
open Cmdliner
open Cli_common

let cmd =
  let dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also write a Graphviz rendering.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print structural statistics instead of the tree.")
  in
  let svg_arg =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Also write a standalone SVG rendering.")
  in
  let run shape (nodes, pre) seed qos bw dot stats svg =
    let t = make_tree ~shape ~nodes ~pre ~seed ~max_requests:6 ~pre_mode:1 in
    let t = constrain_tree ~qos ~bw ~seed t in
    if stats then begin
      Format.printf "%a" Metrics.pp (Metrics.compute t);
      Format.printf "nodes per depth:";
      List.iter
        (fun (d, c) -> Format.printf " %d:%d" d c)
        (Metrics.depth_histogram t);
      Format.printf "@.branching histogram:";
      List.iter
        (fun (b, c) -> Format.printf " %d:%d" b c)
        (Metrics.branching_histogram t);
      Format.printf "@."
    end
    else begin
      Format.printf "%a" Tree.pp t;
      Format.printf "serialized: %s@." (Tree.to_string t)
    end;
    Option.iter (fun path -> Dot.write_file path t) dot;
    Option.iter (fun path -> Svg.write_file path t) svg
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate and print a random distribution tree.")
    Term.(
      const run $ shape_arg $ nodes_pre_args ~nodes:20 ~pre:0 $ seed_arg
      $ qos_arg $ bw_arg $ dot_arg $ stats_flag $ svg_arg)
