int main() {
  int *p;
  p = (int*)malloc(16);
  p[0] = 7;
  free((char*)p);
  print_int(p[0]);
  return 0;
}
