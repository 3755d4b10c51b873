int main() {
  int *a;
  int i;
  int s;
  a = (int*)malloc(4 * sizeof(int));
  s = 0;
  for (i = 0; i <= 4; i++) {
    s = s + a[i];
  }
  return s;
}
